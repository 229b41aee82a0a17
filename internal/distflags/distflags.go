// Package distflags wires the standard distributed-sweep flag block —
// -dist-workers, -dist-addr, -dist-exec, -dist-wait, -dist-depth,
// -cache-url — into the study CLIs (cmd/figures, cmd/resilience,
// cmd/inference) and the daemon (cmd/macrochipd), so every sweep command
// grows the same distributed surface with one Register call and the flags
// mean the same thing everywhere. The two fleet flags combine:
// -dist-workers N beside -dist-addr puts this machine's cores into a
// remote fleet as N local workers, so the coordinator's host does not idle
// while remote workers compute.
package distflags

import (
	"flag"
	"os"
	"strconv"
	"time"

	"macrochip/internal/distrib"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
)

// Flags holds the parsed distributed-sweep settings.
type Flags struct {
	workers  int
	addr     string
	exec     string
	wait     int
	waitFor  time.Duration
	depth    int
	cacheURL string
}

// Register installs the flag block on fs (typically flag.CommandLine,
// before flag.Parse).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.workers, "dist-workers", 0, "spawn this many local worker processes (-dist-exec -worker) and fan sweep cells across them; beside -dist-addr they keep this machine's cores in the fleet")
	fs.StringVar(&f.addr, "dist-addr", "", "listen on host:port for remote workers (macrosim -connect host:port)")
	fs.StringVar(&f.exec, "dist-exec", "macrosim", "worker binary spawned for -dist-workers (resolved via PATH)")
	fs.IntVar(&f.wait, "dist-wait", 0, "wait for this many attached workers before sweeping (0 = start immediately)")
	fs.DurationVar(&f.waitFor, "dist-wait-timeout", time.Minute, "how long -dist-wait waits before giving up")
	fs.IntVar(&f.depth, "dist-depth", distrib.DefaultCredits, "cells queued per worker; each worker simulates one at a time (1 = stop-and-wait)")
	fs.StringVar(&f.cacheURL, "cache-url", "", "macrochipd base URL for the shared cache tier, e.g. http://host:8080")
	return f
}

// Enabled reports whether any distributed execution was requested.
func (f *Flags) Enabled() bool { return f.workers > 0 || f.addr != "" }

// AttachRemote points the cache at the shared daemon tier when -cache-url
// is set (no-op otherwise, or with a disabled cache).
func (f *Flags) AttachRemote(c *expcache.Cache) {
	if c != nil && f.cacheURL != "" {
		c.SetRemote(expcache.NewHTTPRemote(f.cacheURL))
	}
}

// Coordinator builds and starts the coordinator the flags describe, or
// returns (nil, nil) when distribution was not requested — a nil
// *harness.Coordinator is the valid "compute everything locally" value for
// Runner.Dist. Spawned workers inherit the caller's cache flags, so every
// participant rendezvouses on the same store. The caller owns the returned
// coordinator and must Close it after the sweep.
func (f *Flags) Coordinator(seed int64, cacheDir string, noCache bool) (*harness.Coordinator, error) {
	if !f.Enabled() {
		return nil, nil
	}
	var args []string
	if noCache {
		args = append(args, "-no-cache")
	} else {
		args = append(args, "-cache-dir", cacheDir)
	}
	if f.cacheURL != "" {
		args = append(args, "-cache-url", f.cacheURL)
	}
	if f.depth > 0 {
		args = append(args, "-dist-depth", strconv.Itoa(f.depth))
	}
	d, err := harness.NewCoordinator(harness.CoordinatorConfig{
		Workers:  f.workers,
		Exec:     f.exec,
		Args:     args,
		Addr:     f.addr,
		MaxDepth: f.depth,
		Seed:     seed,
		Log:      os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	if f.wait > 0 {
		if err := d.AwaitWorkers(f.wait, f.waitFor); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}
