package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// The sweep-cold windows are the CLIs' -quick windows, so the saturated
// points build the 200K–340K-event queues a quick figure-6 run builds.
const (
	sweepWarmup  = 500 * sim.Nanosecond
	sweepMeasure = 1500 * sim.Nanosecond
	// cacheOpens is how many fresh cache directories each iteration opens to
	// time set-up, which is microseconds per open.
	cacheOpens = 20
)

func sweepBase(seed int64) harness.LoadPointConfig {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Warmup, cfg.Measure, cfg.Seed = sweepWarmup, sweepMeasure, seed
	return cfg
}

// sweepConfigs lists the figure-6 points in Figure6With's flattened order.
func sweepConfigs(base harness.LoadPointConfig) []harness.LoadPointConfig {
	var cfgs []harness.LoadPointConfig
	for _, pat := range traffic.All(base.Params.Grid) {
		for _, k := range networks.Five() {
			for _, load := range harness.Figure6Loads(pat.Name()) {
				cfg := base
				cfg.Network, cfg.Pattern, cfg.Load = k, pat, load
				cfg.Seed = harness.PointSeed(base.Seed, k, pat.Name(), load)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// sweepPass is one cold figure-6 grid through harness.Figure6With on the
// default in-process Runner, with a fresh cache directory.
type sweepPass struct {
	dir       string
	setup     []float64 // seconds per cache open
	wall, cpu float64
	peakMB    float64
	panels    []harness.Figure6Panel
	csv       [][]byte
	cache     expcache.Stats
}

func runSweepPass(e *env, i int, base harness.LoadPointConfig) (*sweepPass, error) {
	p := &sweepPass{}
	var cache *expcache.Cache
	// Flush the previous iteration's cache writes first, so set-up is not
	// timed behind their writeback.
	syscall.Sync()
	for j := 0; j < cacheOpens; j++ {
		dir := filepath.Join(e.work, fmt.Sprintf("sweep-%d", i), strconv.Itoa(j))
		t0 := time.Now()
		c, err := expcache.Open(dir)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		cache, p.dir = c, dir
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	cpu0, t0 := selfCPU(), time.Now()
	p.panels = harness.Figure6With(harness.Runner{Cache: cache}, base)
	p.wall, p.cpu = time.Since(t0).Seconds(), selfCPU()-cpu0
	kb, err := procMemKB(0, "VmHWM")
	if err != nil {
		return nil, err
	}
	p.peakMB = kb / 1024
	p.cache = cache.Stats()
	for _, panel := range p.panels {
		var b bytes.Buffer
		if err := harness.WriteFigure6CSV(&b, panel); err != nil {
			return nil, err
		}
		p.csv = append(p.csv, b.Bytes())
	}
	return p, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkOutputs compares rendered CSVs with the first iteration's and, on
// the default seed, with the digests recorded in digests.go. Each mismatch
// fails the operations that produced that CSV.
func checkOutputs(o *outcome, e *env, workload string, names []string, csv, first [][]byte, ops []int) {
	for j, b := range csv {
		if first != nil && !bytes.Equal(b, first[j]) {
			o.fail(ops[j], "%s %s: bytes differ from the run's first iteration", workload, names[j])
			continue
		}
		if first == nil && e.seed == defaultSeed {
			key := workload + "/" + names[j]
			if got := digest(b); got != digests[key] {
				o.fail(ops[j], "%s: sha256 %s, recorded %s", key, got, digests[key])
			}
		}
	}
}

func panelNames(panels []harness.Figure6Panel) (names []string, ops []int) {
	for _, p := range panels {
		n := 0
		for _, s := range p.Series {
			n += len(s.Points)
		}
		names, ops = append(names, p.Pattern), append(ops, n)
	}
	return names, ops
}

func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	base := sweepBase(e.seed)
	var first [][]byte
	var setup, wall, cpu, rss []float64
	var last *sweepPass
	pass := func(i int) error {
		p, err := runSweepPass(e, i, base)
		if err != nil {
			return err
		}
		names, ops := panelNames(p.panels)
		o.attempted += total(ops)
		checkOutputs(o, e, "sweep-cold", names, p.csv, first, ops)
		if first == nil {
			first = p.csv
		}
		setup = append(setup, p.setup...)
		wall, cpu, rss = append(wall, p.wall), append(cpu, p.cpu), append(rss, p.peakMB)
		last = p
		if e.trace {
			return nil // the traced pass reads this iteration's cache
		}
		return os.RemoveAll(filepath.Dir(p.dir))
	}
	if e.trace {
		if err := pass(0); err != nil {
			return nil, err
		}
		return o, traceSweep(e, o, base, last)
	}
	// Two grids at least, about 37 s on a 2-vCPU host, even past the run's
	// measurement time: the peak RSS of a single grid depends on when the
	// collector runs, and the median of two narrows that spread.
	if err := loop(e, 2, pass); err != nil {
		return nil, err
	}
	o.summarize("wall_s", "s", wall)
	o.summarize("cpu_s", "s", cpu)
	o.summarize("peak_rss_mb", "MB", rss)
	o.summarize("setup_s", "s", setup)
	return o, nil
}

// traceSweep replays the untraced pass's grid with a span per load point,
// the queue sampled, and a CPU profile running, then runs the layer
// probes.
func traceSweep(e *env, o *outcome, base harness.LoadPointConfig, u *sweepPass) error {
	cfgs := sweepConfigs(base)
	var points []harness.LoadPoint
	for _, panel := range u.panels {
		for _, s := range panel.Series {
			points = append(points, s.Points...)
		}
	}
	if len(points) != len(cfgs) {
		return fmt.Errorf("sweep: %d points for %d configs", len(points), len(cfgs))
	}
	entries, err := readEntries(u.dir)
	if err != nil {
		return err
	}
	// Each point's cache entry is its LoadPoint's JSON, so the untraced
	// pass's directory gives every point's key.
	keyOf := map[string]expcache.Key{}
	for _, en := range entries {
		keyOf[string(en.data)] = en.key
	}
	pubCache, err := expcache.Open(filepath.Join(e.work, "sweep-traced"))
	if err != nil {
		return err
	}

	tr := newTracer()
	counts := make([]simCount, len(cfgs))
	pubErrs := make([]error, len(cfgs))
	var wall time.Duration
	shares, err := profiled(func() {
		wall = fanOut(e.nproc, len(cfgs), func(lane, i int) {
			root := tr.newID()
			s0 := time.Now()
			counts[i] = tracedLoadPoint(cfgs[i])
			s1 := time.Now()
			tr.record(0, "sim.loadpoint", root, int64(i), lane, s0, s1)
			data, _ := json.Marshal(points[i])
			if key, ok := keyOf[string(data)]; ok {
				pubErrs[i] = pubCache.PublishEntry(key, data)
			} else {
				pubErrs[i] = fmt.Errorf("untraced result has no cache entry")
			}
			tr.record(0, "expcache.publish", root, int64(i), lane, s1, time.Now())
			tr.record(root, "harness.loadpoint", 0, int64(i), lane, s0, time.Now())
		})
	})
	if err != nil {
		return err
	}
	o.setShares(shares)

	o.attempted += len(cfgs)
	tally := netTally{}
	var events uint64
	var heap []float64
	for i, c := range counts {
		cfg := cfgs[i]
		switch {
		case c.events != points[i].Events:
			o.fail(1, "point %d (%s %s %.4g): traced %d events, LoadPoint.Events %d",
				i, cfg.Network, cfg.Pattern.Name(), cfg.Load, c.events, points[i].Events)
		case pubErrs[i] != nil:
			o.fail(1, "point %d: publish: %v", i, pubErrs[i])
		}
		events += c.events
		heap = append(heap, c.heap...)
	}
	for _, s := range tr.spans {
		if s.name == "sim.loadpoint" {
			tally.add(cfgs[s.op].Network, s.end.Sub(s.start), counts[s.op])
		}
	}
	// Allocations need a quiet process: replay a low, a middle and a
	// saturating uniform point per network serially.
	for _, cfg := range cfgs {
		if cfg.Pattern.Name() == "uniform" && (cfg.Load == 0.05 || cfg.Load == 0.30 || cfg.Load == 0.75) {
			m0 := mallocs()
			c := tracedLoadPoint(cfg)
			tally.addAllocs(cfg.Network, mallocs()-m0, c)
		}
	}
	o.setNetworks(tally)
	o.setKernel(events, heap)

	lp := tr.durations("harness.loadpoint")
	o.set("harness.loadpoint_ms_p50", "ms", pct(lp, 50))
	o.set("harness.loadpoint_ms_max", "ms", maxOf(lp))
	o.set("harness.parallel_speedup", "1", sum(lp)/1e3/wall.Seconds())
	o.set("harness.cpu_util", "1", u.cpu/(u.wall*float64(e.nproc)))
	o.set("bench.trace_overhead", "1", wall.Seconds()/u.wall)
	o.setCacheRatios(u.cache)
	pub, disk, hot, err := cacheTiers[harness.LoadPoint](filepath.Join(e.work, "tiers"), entries)
	if err != nil {
		return err
	}
	o.setTiers(pub, disk, hot)
	return tr.finish(e, o, "sweep-cold")
}

// setCacheRatios reports the share of lookups served by the cache and the
// share of hits served from memory.
func (o *outcome) setCacheRatios(s expcache.Stats) {
	o.set("expcache.hit_ratio", "1", ratio(float64(s.Hits), float64(s.Hits+s.Misses)))
	o.set("expcache.mem_hit_ratio", "1", ratio(float64(s.MemHits), float64(s.Hits)))
}
