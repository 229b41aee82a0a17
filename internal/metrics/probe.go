package metrics

import (
	"fmt"

	"macrochip/internal/sim"
)

// Probe periodically snapshots every gauge and counter in a Registry into
// time series, scheduled as ordinary sim.Engine events so samples land at
// deterministic simulated times and interleave reproducibly with model
// events (probe callbacks only read state, so the model's own event order
// is unperturbed and instrumented results are byte-identical to
// un-instrumented ones). The probe is its own tick event's handler.
type Probe struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Duration
	until    sim.Time

	// Samples counts completed sampling ticks.
	Samples int
}

// NewProbe returns a probe sampling reg every interval. It panics on a
// non-positive interval or nil registry: a probe without a sink is a
// configuration error, not a disabled layer (disable by not creating one).
func NewProbe(eng *sim.Engine, reg *Registry, interval sim.Duration) *Probe {
	if reg == nil {
		panic("metrics: NewProbe with nil registry")
	}
	if interval <= 0 {
		panic(fmt.Sprintf("metrics: probe interval %v", interval))
	}
	return &Probe{eng: eng, reg: reg, interval: interval}
}

// Start schedules sampling ticks from one interval after now until (and
// including ticks at) the given horizon. Call before Engine.Run.
func (p *Probe) Start(until sim.Time) {
	p.until = until
	p.eng.ScheduleCall(p.interval, p, sim.EventArg{})
}

// OnEvent takes one sample and schedules the next tick.
func (p *Probe) OnEvent(e *sim.Engine, _ sim.EventArg) {
	if e.Now() > p.until {
		return
	}
	p.reg.sampleAll(e.Now())
	p.Samples++
	e.ScheduleCall(p.interval, p, sim.EventArg{})
}
