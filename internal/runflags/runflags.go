// Package runflags is the one place where a command's flags become its
// harness.Runner: Register installs the flag blocks a command takes, and
// Start opens the cache, the fleet and the CPU profile and returns the
// function the command defers to close them. The macrosim worker opens
// its own cache flags through OpenCache, and every comma-list flag goes
// through Split.
package runflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"macrochip/internal/distrib"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
)

// Part selects a flag block beyond -j, -cache-dir and -no-cache.
type Part uint8

const (
	// Fleet adds -cache-url and the -dist-* block.
	Fleet Part = 1 << iota
	// Profile adds -cpuprofile and -memprofile.
	Profile
)

// Flags holds one command's parsed run settings.
type Flags struct {
	name string
	// out receives the plain warning and summary lines (os.Stderr; tests
	// capture it).
	out io.Writer
	log *slog.Logger

	jobs     int
	cacheDir string
	noCache  bool

	cacheURL string
	workers  int
	addr     string
	exec     string
	wait     int
	waitFor  time.Duration
	depth    int

	cpuProfile string
	memProfile string
}

// Register installs -j, -cache-dir, -no-cache and the asked-for parts on
// fs (typically flag.CommandLine, before flag.Parse). name prefixes the
// command's warnings and summaries.
func Register(fs *flag.FlagSet, name string, parts Part) *Flags {
	f := &Flags{name: name, out: os.Stderr}
	fs.IntVar(&f.jobs, "j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&f.cacheDir, "cache-dir", expcache.DefaultDir(), `experiment result cache directory ("" disables)`)
	fs.BoolVar(&f.noCache, "no-cache", false, "disable the experiment result cache")
	if parts&Fleet != 0 {
		fs.StringVar(&f.cacheURL, "cache-url", "", "macrochipd base URL for the shared cache tier, e.g. http://host:8080")
		fs.IntVar(&f.workers, "dist-workers", 0, "spawn this many local worker processes (-dist-exec -worker) and fan sweep cells across them; beside -dist-addr they keep this machine's cores in the fleet")
		fs.StringVar(&f.addr, "dist-addr", "", "listen on host:port for remote workers (macrosim -connect host:port)")
		fs.StringVar(&f.exec, "dist-exec", "macrosim", "worker binary spawned for -dist-workers (resolved via PATH)")
		fs.IntVar(&f.wait, "dist-wait", 0, "wait for this many attached workers before sweeping (0 = start immediately)")
		fs.DurationVar(&f.waitFor, "dist-wait-timeout", time.Minute, "how long -dist-wait waits before giving up")
		fs.IntVar(&f.depth, "dist-depth", distrib.DefaultCredits, "cells queued per worker; each worker simulates one at a time (1 = stop-and-wait)")
	}
	if parts&Profile != 0 {
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	return f
}

// Start opens the run the flags describe: the result cache (an open
// failure warns and runs uncached) with its -cache-url tier, the fleet,
// whose spawned workers inherit the cache flags and -dist-depth, and the
// CPU profile. It returns the Runner and the function the command defers,
// which writes the heap profile, stops the CPU profile, closes the fleet
// and prints the cache summary, then the dist summary. The warning and
// summaries are "<name>: ..." lines on stderr, or, with a non-nil log,
// the daemon's structured records.
func (f *Flags) Start(seed int64, log *slog.Logger) (harness.Runner, func(), error) {
	f.log = log
	cache, err := OpenCache(f.cacheDir, f.noCache, f.cacheURL)
	if err != nil {
		f.warn("cache disabled", err)
	}
	dist, err := f.coordinator(seed)
	if err != nil {
		return harness.Runner{}, nil, err
	}
	stopCPU, err := startCPUProfile(f.cpuProfile)
	if err != nil {
		dist.Close()
		return harness.Runner{}, nil, err
	}
	finish := func() {
		f.writeHeapProfile()
		stopCPU()
		dist.Close()
		if f.log != nil {
			f.log.Info("stopped", "cache_summary", cache.Summary())
			if dist != nil {
				f.log.Info("dist summary", "summary", dist.Summary())
			}
			return
		}
		fmt.Fprintln(f.out, f.name+":", cache.Summary())
		if dist != nil {
			fmt.Fprintln(f.out, f.name+":", dist.Summary())
		}
	}
	return harness.Runner{Workers: f.jobs, Cache: cache, Dist: dist}, finish, nil
}

// OpenCache opens the result cache of one set of cache flags: none (nil)
// when noCache is set or dir is empty, otherwise dir, with the daemon
// tier at url attached when url is set. On an error the caller runs
// uncached.
func OpenCache(dir string, noCache bool, url string) (*expcache.Cache, error) {
	if noCache || dir == "" {
		return nil, nil
	}
	c, err := expcache.Open(dir)
	if err != nil {
		return nil, err
	}
	if url != "" {
		c.SetRemote(expcache.NewHTTPRemote(url))
	}
	return c, nil
}

// coordinator builds and starts the fleet the flags describe, or returns
// nil, the Runner's "compute everything locally" value, when none was
// asked for. Spawned workers inherit the cache flags and -dist-depth, so
// every participant rendezvouses on the same store.
func (f *Flags) coordinator(seed int64) (*harness.Coordinator, error) {
	if f.workers <= 0 && f.addr == "" {
		return nil, nil
	}
	args := []string{"-cache-dir", f.cacheDir}
	if f.noCache {
		args = []string{"-no-cache"}
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

// startCPUProfile begins CPU profiling into path (a no-op for "") and
// returns the function that stops it.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		file.Close()
	}, nil
}

// writeHeapProfile snapshots the heap into -memprofile, if set; a GC first
// makes the profile reflect live objects, not collection timing.
func (f *Flags) writeHeapProfile() {
	if f.memProfile == "" {
		return
	}
	file, err := os.Create(f.memProfile)
	if err != nil {
		f.warn("heap profile", err)
		return
	}
	defer file.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(file); err != nil {
		f.warn("heap profile", err)
	}
}

func (f *Flags) warn(msg string, err error) {
	if f.log != nil {
		f.log.Warn(msg, "error", err)
		return
	}
	fmt.Fprintf(f.out, "%s: %s: %v\n", f.name, msg, err)
}

// Split splits a comma-separated flag value into its items, trimmed of
// spaces. Blank items are dropped, so "" and "," give nil.
func Split(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// List parses each item of Split(s) with parse.
func List[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range Split(s) {
		v, err := parse(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Network is List's parse for -networks: one of networks.Six().
func Network(s string) (networks.Kind, error) {
	k := networks.Kind(s)
	if !slices.Contains(networks.Six(), k) {
		return "", fmt.Errorf("unknown network %q (have %v)", s, networks.Six())
	}
	return k, nil
}
