package fault

import (
	"macrochip/internal/sim"
)

// Injector binds a Plan to an engine and a decorated Network: Install
// schedules every failure at its onset and every repair at its repair
// time, so the active fault set evolves as the simulation runs. Install
// must be called before the engine advances past the plan's first onset
// (normally: right after construction, before Run).
type Injector struct {
	eng  *sim.Engine
	net  *Network
	plan Plan

	installed bool
	// Fired counts fault onsets whose activation event has run.
	Fired int
	// Repaired counts completed repairs.
	Repaired int
}

// NewInjector returns an injector for the plan.
func NewInjector(eng *sim.Engine, net *Network, plan Plan) *Injector {
	return &Injector{eng: eng, net: net, plan: plan}
}

// Count reports the number of planned fault events.
func (in *Injector) Count() int { return len(in.plan.Events) }

// Install schedules the plan's failure and repair events. It is
// idempotent-hostile by design: installing twice would double every fault,
// so a second call panics.
func (in *Injector) Install() {
	if in.installed {
		panic("fault: Injector.Install called twice")
	}
	in.installed = true
	now := in.eng.Now()
	for i, ev := range in.plan.Events {
		in.eng.ScheduleCall(ev.At-now, (*onsetH)(in), sim.EventArg{A: uint64(i)})
		in.eng.ScheduleCall(ev.Repair-now, (*repairH)(in), sim.EventArg{A: uint64(i)})
	}
}

// onsetH applies the failure of plan event arg.A.
type onsetH Injector

func (h *onsetH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	in := (*Injector)(h)
	in.net.apply(in.plan.Events[arg.A])
	in.Fired++
}

// repairH clears the failure of plan event arg.A.
type repairH Injector

func (h *repairH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	in := (*Injector)(h)
	in.net.clear(in.plan.Events[arg.A])
	in.Repaired++
}
