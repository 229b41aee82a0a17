// Package trace implements the repository's trace-driven simulation mode:
// synthetic per-core memory-reference streams flow through real per-site
// L2 caches (internal/cache) and a full-map MOESI directory
// (internal/directory), so L2 miss rates, sharing degrees and coherence
// traffic are *emergent* properties of cache state rather than sampled
// probabilities.
//
// This mirrors the paper's actual methodology more closely than the
// profile-driven mode: their "instruction-trace driven multiprocessor
// core/cache simulator ... models an MOESI coherence protocol" and feeds
// the network simulator with the resulting miss traffic (§5). We do not
// have the authors' UltraSPARC traces, so each kernel is modeled as a
// parameterized reference stream (working-set sizes, sharing fraction,
// write fraction, stride behavior) chosen to land in the kernel's published
// cache-behavior regime; DESIGN.md §4 records the substitution.
package trace

import (
	"fmt"

	"macrochip/internal/cache"
	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/directory"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Profile parameterizes one kernel's synthetic reference stream.
type Profile struct {
	Name string
	// PrivateKB is each core's private working set; SharedKB is the
	// site-spanning shared region.
	PrivateKB, SharedKB int
	// SharedFrac is the probability a reference targets the shared region.
	SharedFrac float64
	// WriteFrac is the store fraction.
	WriteFrac float64
	// MeanGapInstr is the mean instruction distance between references
	// that reach the L2 (i.e. after L1 filtering).
	MeanGapInstr float64
	// Sequential is the probability a private reference continues the
	// previous stride (streaming) rather than jumping randomly.
	Sequential float64
	// RefsPerCore is the reference quota per core.
	RefsPerCore int
}

// Profiles returns trace profiles for the six application kernels. The
// private/shared sizes are chosen against the 256 KB per-site L2 shared by
// 8 cores: streaming kernels (radix, swaptions, blackscholes) overflow it
// and miss heavily; barnes' hot tree region fits and rarely misses;
// fluidanimate's boundary cells are written by multiple sites.
func Profiles(s float64) []Profile {
	refs := func(n int) int {
		v := int(float64(n) * s)
		if v < 50 {
			v = 50
		}
		return v
	}
	return []Profile{
		{Name: "radix", PrivateKB: 512, SharedKB: 256, SharedFrac: 0.30,
			WriteFrac: 0.45, MeanGapInstr: 6, Sequential: 0.90, RefsPerCore: refs(3000)},
		{Name: "barnes", PrivateKB: 12, SharedKB: 96, SharedFrac: 0.40,
			WriteFrac: 0.15, MeanGapInstr: 8, Sequential: 0.20, RefsPerCore: refs(4000)},
		{Name: "blackscholes", PrivateKB: 192, SharedKB: 32, SharedFrac: 0.05,
			WriteFrac: 0.20, MeanGapInstr: 7, Sequential: 0.85, RefsPerCore: refs(3000)},
		{Name: "densities", PrivateKB: 96, SharedKB: 512, SharedFrac: 0.35,
			WriteFrac: 0.40, MeanGapInstr: 6, Sequential: 0.60, RefsPerCore: refs(3000)},
		{Name: "forces", PrivateKB: 128, SharedKB: 512, SharedFrac: 0.40,
			WriteFrac: 0.45, MeanGapInstr: 5, Sequential: 0.60, RefsPerCore: refs(3000)},
		{Name: "swaptions", PrivateKB: 384, SharedKB: 16, SharedFrac: 0.03,
			WriteFrac: 0.35, MeanGapInstr: 5, Sequential: 0.90, RefsPerCore: refs(3000)},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string, s float64) (Profile, error) {
	for _, p := range Profiles(s) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// Machine binds the caches, directory, coherence engine and cores for one
// trace-driven run.
type Machine struct {
	eng   *sim.Engine
	p     core.Params
	coh   *coherence.Engine
	dir   *directory.Directory
	L2    []*cache.Cache
	prof  Profile
	stats *core.Stats

	done       int
	totalCores int

	// Writebacks counts dirty-eviction messages sent to homes.
	Writebacks uint64
}

// NewMachine builds the trace-driven machine over an existing network.
func NewMachine(eng *sim.Engine, p core.Params, net core.Network, stats *core.Stats, prof Profile) *Machine {
	sites := p.Grid.Sites()
	m := &Machine{
		eng: eng, p: p,
		coh:        coherence.NewEngine(eng, p, net),
		dir:        directory.New(sites),
		L2:         make([]*cache.Cache, sites),
		prof:       prof,
		stats:      stats,
		totalCores: sites * p.CoresPerSite,
	}
	for s := range m.L2 {
		m.L2[s] = cache.New(p.L2KBPerSite, 8, p.CacheLineBytes)
	}
	return m
}

// Run executes the profile to completion and returns the results in the
// same shape as the profile-driven mode.
func (m *Machine) Run(seed int64) cpu.Result {
	root := sim.NewRNG(seed)
	for s := 0; s < m.p.Grid.Sites(); s++ {
		for c := 0; c < m.p.CoresPerSite; c++ {
			tc := &traceCore{
				m: m, site: geometry.SiteID(s), id: c,
				rng:    root.Derive(int64(s*m.p.CoresPerSite + c)),
				remain: m.prof.RefsPerCore,
			}
			tc.run()
		}
	}
	m.eng.Run()
	if m.done != m.totalCores {
		panic("trace: run ended with unfinished cores")
	}
	return cpu.Result{
		Benchmark:    m.prof.Name + "(trace)",
		Network:      "",
		Runtime:      m.eng.Now(),
		Ops:          m.coh.Completed,
		LatencyPerOp: m.coh.MeanLatency(),
		MaxLatency:   m.coh.MaxLatency,
		Stats:        m.stats,
	}
}

// MissRate returns the aggregate L2 miss rate across sites.
func (m *Machine) MissRate() float64 {
	var hits, misses uint64
	for _, c := range m.L2 {
		hits += c.Stats.Hits
		misses += c.Stats.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

// Directory exposes the shared directory (tests, analyses).
func (m *Machine) Directory() *directory.Directory { return m.dir }

// traceCore is one core walking its synthetic reference stream.
type traceCore struct {
	m      *Machine
	site   geometry.SiteID
	id     int
	rng    *sim.RNG
	remain int
	// lastPrivate is the previous private reference for stride continuation.
	lastPrivate uint64
}

// addressSpace layout: each core's private region is disjoint; the shared
// region is global.
const sharedBase = uint64(1) << 48

func (c *traceCore) privateBase() uint64 {
	coreID := uint64(int(c.site)*c.m.p.CoresPerSite + c.id)
	return (coreID + 1) << 32
}

// next synthesizes the next reference.
func (c *traceCore) next() (addr uint64, write bool) {
	prof := c.m.prof
	write = c.rng.Bool(prof.WriteFrac)
	line := uint64(c.m.p.CacheLineBytes)
	if c.rng.Bool(prof.SharedFrac) && prof.SharedKB > 0 {
		lines := uint64(prof.SharedKB) * 1024 / line
		return sharedBase + uint64(c.rng.Intn(int(lines)))*line, write
	}
	lines := uint64(prof.PrivateKB) * 1024 / line
	if lines == 0 {
		lines = 1
	}
	if c.lastPrivate != 0 && c.rng.Bool(prof.Sequential) {
		off := (c.lastPrivate - c.privateBase() + line) % (lines * line)
		c.lastPrivate = c.privateBase() + off
	} else {
		c.lastPrivate = c.privateBase() + uint64(c.rng.Intn(int(lines)))*line
	}
	return c.lastPrivate, write
}

// run advances the core: execute the instruction gap, make the reference,
// and on an L2 miss issue the coherence operation derived from live
// directory state.
func (c *traceCore) run() {
	if c.remain <= 0 {
		c.m.done++
		return
	}
	c.remain--
	gap := c.rng.Geometric(c.m.prof.MeanGapInstr)
	c.m.eng.ScheduleCall(c.m.p.Cycles(gap), c, sim.EventArg{})
}

// OnEvent ends the instruction gap with the next reference.
func (c *traceCore) OnEvent(*sim.Engine, sim.EventArg) {
	addr, write := c.next()
	l2 := c.m.L2[c.site]
	line := l2.LineAddr(addr)
	res := l2.Lookup(line, write)
	if res.Hit {
		c.run()
		return
	}
	dir := c.m.dir
	home := dir.Home(line, c.m.p.CacheLineBytes)
	op := coherence.Op{
		Requester: c.site,
		Home:      home,
		OnIssued:  func() { c.run() },
	}
	var fill cache.State
	if write || res.NeedsOwnership {
		victims := dir.WriteMiss(line, c.site)
		op.Sharers = victims
		op.Write = true
		fill = cache.Modified
		// Invalidate the victims' cached copies as the protocol messages
		// land (the network carries them; cache state flips here since the
		// directory is the ordering point).
		for _, v := range victims {
			c.m.L2[v].Invalidate(line)
		}
	} else {
		owner, fwd := dir.ReadMiss(line, c.site)
		if fwd {
			op.Sharers = []geometry.SiteID{owner}
			c.m.L2[owner].Downgrade(line)
			fill = cache.Shared
		} else if dir.Lookup(line).Count() > 1 {
			fill = cache.Shared
		} else {
			fill = cache.Exclusive
		}
	}
	st := fill
	op.OnComplete = func(sim.Time) {
		victim, evicted := c.m.L2[c.site].Fill(line, st)
		if evicted {
			c.m.dir.Evict(victim.Addr, c.site)
			if victim.State.Dirty() {
				// Dirty writeback to the victim's home: one data message,
				// fire-and-forget.
				c.m.Writebacks++
				c.m.coh.Writeback(c.site, c.m.dir.Home(victim.Addr, c.m.p.CacheLineBytes))
			}
		}
	}
	c.m.coh.Issue(op)
}
