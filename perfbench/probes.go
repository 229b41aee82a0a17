package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/memory"
	"macrochip/internal/networks"
	"macrochip/internal/power"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// heapEvery is the dispatch-hook sampling period: one pending-queue sample
// per this many events, so the samples are weighted by events.
const heapEvery = 256

// simCount is what one traced simulation dispatched and carried.
type simCount struct {
	events, packets uint64
	heap            []float64 // pending-queue samples
}

// hookHeap samples the engine's pending-queue size through the dispatch
// hook.
func hookHeap(eng *sim.Engine, c *simCount) {
	n := 0
	eng.SetDispatchHook(func(sim.Time) {
		if n++; n == heapEvery {
			n = 0
			c.heap = append(c.heap, float64(eng.Pending()))
		}
	})
}

// tracedLoadPoint runs one load point from the public constructors
// harness.RunLoadPoint uses (serial kernel, no observer), with the queue
// sampled. Its counts must equal the untraced LoadPoint's.
func tracedLoadPoint(cfg harness.LoadPointConfig) simCount {
	eng := sim.NewEngine()
	stats := core.NewStats(cfg.Warmup)
	end := cfg.Warmup + cfg.Measure
	stats.MeasureEnd = end
	net := networks.MustNew(cfg.Network, eng, cfg.Params, stats)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: cfg.Params, Net: net, Pattern: cfg.Pattern, Load: cfg.Load,
		PacketBytes: cfg.PacketBytes, Until: end, Seed: cfg.Seed,
	}
	var c simCount
	hookHeap(eng, &c)
	gen.Start()
	eng.RunUntil(cfg.Warmup + 2*cfg.Measure)
	c.events, c.packets = eng.Executed(), stats.Injected
	return c
}

// tracedBenchCell runs one study cell from the public constructors
// harness.RunBenchmark uses, with the queue sampled.
func tracedBenchCell(b cpu.Benchmark, kind networks.Kind, p core.Params, seed int64) (harness.BenchResult, simCount) {
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	net := networks.MustNew(kind, eng, p, stats)
	var mem coherence.MemoryBackend
	if p.MemoryTech != "" {
		tech, err := memory.ByName(p.MemoryTech)
		if err != nil {
			panic(err)
		}
		mem = memory.NewController(eng, p.Grid.Sites(), tech, seed+1)
	}
	var c simCount
	hookHeap(eng, &c)
	res := cpu.Run(b, eng, p, net, stats, seed, mem)
	c.events, c.packets = eng.Executed(), stats.Injected
	return harness.BenchResult{Result: res, Kind: kind, Energy: power.Compute(kind, p, stats, res.Runtime)}, c
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// holdHandler keeps the queue at a fixed size: every dispatched event
// schedules one successor a pseudo-random delay ahead (the classic hold
// model).
type holdHandler struct {
	x    uint64
	mean uint64
}

func (h *holdHandler) OnEvent(e *sim.Engine, arg sim.EventArg) {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	e.ScheduleCall(sim.Duration(1+h.x%(2*h.mean)), h, arg)
}

// holdNsPerEvent times the kernel alone — ScheduleCall plus dispatch — at a
// queue of `size` pending events, over about `events` dispatches; it
// returns the median of three repetitions.
func holdNsPerEvent(size, events int) float64 {
	size = max(size, 1)
	const mean = 1000 // ps
	var reps []float64
	for r := 0; r < 3; r++ {
		eng := sim.NewEngine()
		h := &holdHandler{x: 0x9e3779b97f4a7c15 + uint64(r), mean: mean}
		for i := 0; i < size; i++ {
			h.OnEvent(eng, sim.EventArg{})
		}
		horizon := sim.Time(uint64(events) * mean / uint64(size))
		t0 := time.Now()
		eng.RunUntil(horizon)
		n := eng.Executed()
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return pct(reps, 50)
}

// setKernel reports the dispatch-hook queue samples and the kernel hold
// loop at those sizes.
func (o *outcome) setKernel(events uint64, heap []float64) {
	p50, p99 := pct(heap, 50), pct(heap, 99)
	o.set("sim.events", "count", float64(events))
	o.set("sim.heap_p50", "count", p50)
	o.set("sim.heap_p99", "count", p99)
	o.set("sim.hold_ns_per_event", "ns", holdNsPerEvent(int(p99), 1_000_000))
	o.set("sim.hold_ns_per_event_at_p50", "ns", holdNsPerEvent(int(p50), 1_000_000))
}

// netTally accumulates each network kind's traced cost.
type netTally map[networks.Kind]*netCost

type netCost struct {
	ns, events, packets float64
	allocs, allocPkts   float64
}

func (t netTally) get(k networks.Kind) *netCost {
	if t[k] == nil {
		t[k] = &netCost{}
	}
	return t[k]
}

// add counts one traced simulation that took d.
func (t netTally) add(k networks.Kind, d time.Duration, c simCount) {
	n := t.get(k)
	n.ns += float64(d.Nanoseconds())
	n.events += float64(c.events)
	n.packets += float64(c.packets)
}

// addAllocs counts one serial replay's heap allocations.
func (t netTally) addAllocs(k networks.Kind, allocs uint64, c simCount) {
	n := t.get(k)
	n.allocs += float64(allocs)
	n.allocPkts += float64(c.packets)
}

// setNetworks reports per-packet cost for the five figure-6 networks.
func (o *outcome) setNetworks(t netTally) {
	for _, k := range networks.Five() {
		n := t.get(k)
		o.set("networks."+string(k)+".ns_per_packet", "ns", ratio(n.ns, n.packets))
		o.set("networks."+string(k)+".events_per_packet", "count", ratio(n.events, n.packets))
		o.set("networks."+string(k)+".allocs_per_packet", "count", ratio(n.allocs, n.allocPkts))
	}
}

// fanOut runs fn(lane, i) for every i in [0, n) on `workers` goroutines
// that pull the next index from a shared counter, as harness.Runner
// schedules points, and returns the wall time.
func fanOut(workers, n int, fn func(lane, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(lane, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// profiled runs fn under the CPU profiler and returns the profile's
// bucket shares.
func profiled(fn func()) (map[string]float64, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return cpuShares(prof.Bytes())
}

// entry is one published cache entry, read back from a cache directory.
type entry struct {
	key  expcache.Key
	data []byte
}

// readEntries lists a cache directory's published entries in key order.
func readEntries(dir string) ([]entry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	out := make([]entry, 0, len(names))
	for _, n := range names {
		k, err := expcache.ParseKey(strings.TrimSuffix(filepath.Base(n), ".json"))
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		out = append(out, entry{k, b})
	}
	return out, nil
}

// cacheTiers times the local cache tiers on real entries: PublishEntry into
// a fresh directory, then Do through a fresh handle (disk hit, which admits
// the entry to the hot tier), then Do again (hot hit). T is the entries'
// result type, so each hit pays the decode a sweep pays.
func cacheTiers[T any](dir string, entries []entry) (pub, disk, hot []float64, err error) {
	c, err := expcache.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, en := range entries {
		t0 := time.Now()
		if err := c.PublishEntry(en.key, en.data); err != nil {
			return nil, nil, nil, err
		}
		pub = append(pub, us(time.Since(t0)))
	}
	c, err = expcache.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	missed := false
	miss := func() T { missed = true; var z T; return z }
	for _, tier := range []*[]float64{&disk, &hot} {
		for _, en := range entries {
			t0 := time.Now()
			expcache.Do(c, en.key, miss)
			*tier = append(*tier, us(time.Since(t0)))
		}
	}
	if missed {
		return nil, nil, nil, fmt.Errorf("expcache probe: a published entry missed")
	}
	return pub, disk, hot, nil
}

// setTiers reports the medians of cacheTiers' timings.
func (o *outcome) setTiers(pub, disk, hot []float64) {
	o.set("expcache.publish_us_p50", "us", pct(pub, 50))
	o.set("expcache.disk_hit_us_p50", "us", pct(disk, 50))
	o.set("expcache.hot_hit_us_p50", "us", pct(hot, 50))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
