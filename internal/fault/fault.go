// Package fault is the deterministic fault-injection subsystem: it models
// component failures of the macrochip's photonic devices (paper table 1)
// and their effect on any of the six network architectures.
//
// The paper's complexity analysis (§7, table 5) counts tens of thousands of
// lasers, ring modulators and drop filters per network but evaluates only a
// perfect, failure-free macrochip. This package adds the missing axis: a
// seeded Plan of failure/repair events, an Injector that schedules them on
// the sim.Engine, and a Network decorator that applies the active fault set
// to every packet of a wrapped network. All randomness derives from a run
// seed via sim.DeriveSeed, so fault schedules are reproducible and safe to
// fan out across the harness worker pool.
package fault

import (
	"fmt"
	"sort"

	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Class names one fault mode, mapped to the table-1 component it breaks.
type Class uint8

const (
	// DarkLaser is a dead off-stack laser source: the site's transmitters
	// have no carrier and every packet it sources is lost until repair
	// (a VCSEL/Raman source failure, table 1 "laser").
	DarkLaser Class = iota
	// RingDetune is thermal detuning of a site's modulator/drop-filter
	// rings: usable bandwidth derates and packets are probabilistically
	// corrupted at the receiver (table 1 "ring modulator"/"drop filter",
	// the trimming-budget failure of the §7 discussion).
	RingDetune
	// StuckSwitch is a broadband switch (OPxC) stuck in the wrong state:
	// one source→destination path is unusable until repair (table 1
	// "switch"; circuit-switched and two-phase path loss).
	StuckSwitch
	// NumClasses bounds per-class arrays.
	NumClasses
)

// String returns the class name used in CSV output and CLI flags.
func (c Class) String() string {
	switch c {
	case DarkLaser:
		return "dark-laser"
	case RingDetune:
		return "ring-detune"
	case StuckSwitch:
		return "stuck-switch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass is the inverse of String.
func ParseClass(s string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q", s)
}

// AllClasses returns every fault class in declaration order.
func AllClasses() []Class { return []Class{DarkLaser, RingDetune, StuckSwitch} }

// Event is one scheduled failure with its repair time.
type Event struct {
	// At is the failure onset; Repair is the absolute time the component
	// returns to service (Repair > At).
	At, Repair sim.Time
	Class      Class
	// Site is the failing transmitter site (DarkLaser, RingDetune) or the
	// source side of the stuck path (StuckSwitch).
	Site geometry.SiteID
	// Peer is the destination side of the stuck path (StuckSwitch only).
	Peer geometry.SiteID
	// Derate is the serialization multiplier while a RingDetune is active
	// (≥ 1).
	Derate float64
	// CorruptProb is the per-packet corruption probability while a
	// RingDetune is active.
	CorruptProb float64
}

// Plan is a reproducible fault schedule: the full list of failure/repair
// events for one run, sorted by onset time.
type Plan struct {
	Events []Event
}

// PlanConfig parameterizes plan generation.
type PlanConfig struct {
	Grid geometry.Grid
	// Classes enables fault modes; nil means AllClasses.
	Classes []Class
	// RatePerSitePerMs is the expected failures per site per simulated
	// millisecond, per enabled class (a Poisson process per site). Zero
	// yields an empty plan.
	RatePerSitePerMs float64
	// Horizon bounds failure onsets: no fault starts after it.
	Horizon sim.Time
	// MTTR is the mean repair duration (exponentially distributed).
	MTTR sim.Time
}

// A RingDetune fault derates its site's channels 4× and corrupts 5% of the
// packets they carry.
const (
	detuneDerate      = 4
	detuneCorruptProb = 0.05
)

// NewPlan generates the fault schedule for one run. Generation is pure:
// each (class, site) pair draws from its own stream derived from the seed,
// so the schedule depends only on (cfg, seed) — never on execution order —
// and stays identical across harness worker counts.
func NewPlan(cfg PlanConfig, seed int64) Plan {
	classes := cfg.Classes
	if classes == nil {
		classes = AllClasses()
	}
	var events []Event
	if cfg.RatePerSitePerMs > 0 && cfg.Horizon > 0 {
		// Mean gap between failures of one (class, site): 1 ms / rate,
		// saturating at the end of the time axis for a vanishing rate.
		gap := sim.FromPicoseconds(float64(sim.Millisecond) / cfg.RatePerSitePerMs)
		sites := cfg.Grid.Sites()
		for _, c := range classes {
			for s := 0; s < sites; s++ {
				rng := sim.NewRNG(sim.DeriveSeed(seed, uint64(c), uint64(s)))
				for at := rng.ExpDuration(gap); at <= cfg.Horizon; at = after(at, rng.ExpDuration(gap)) {
					ev := Event{
						At:     at,
						Repair: after(at, rng.ExpDuration(cfg.MTTR)),
						Class:  c,
						Site:   geometry.SiteID(s),
					}
					switch c {
					case RingDetune:
						ev.Derate = detuneDerate
						ev.CorruptProb = detuneCorruptProb
					case StuckSwitch:
						d := rng.Intn(sites - 1)
						if d >= s {
							d++
						}
						ev.Peer = geometry.SiteID(d)
					}
					events = append(events, ev)
				}
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Site < b.Site
	})
	return Plan{Events: events}
}

// after is the instant d after t, saturating at sim.MaxTime: a fault
// never repaired within the time axis is repaired at its end.
func after(t sim.Time, d sim.Duration) sim.Time {
	if d > sim.MaxTime-t {
		return sim.MaxTime
	}
	return t + d
}

// String summarizes the plan for logs.
func (p Plan) String() string {
	var per [NumClasses]int
	for _, ev := range p.Events {
		per[ev.Class]++
	}
	return fmt.Sprintf("fault.Plan{%d events: %d %s, %d %s, %d %s}",
		len(p.Events),
		per[DarkLaser], DarkLaser, per[RingDetune], RingDetune, per[StuckSwitch], StuckSwitch)
}
