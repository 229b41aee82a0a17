// Package metrics is the simulator's observability layer: a registry of
// named instruments (counters and gauges), a periodic sampling probe that
// turns them into time series (probe.go), and a Chrome-trace-format event
// tracer (tracer.go).
//
// The whole layer is opt-in and zero-cost when disabled. Every instrument
// handle and the Tracer are nil-safe: a nil *Registry hands out nil
// instruments whose methods are no-ops, so model code writes
//
//	n.wasted.Inc()          // nil counter: one predictable branch, 0 allocs
//	if n.tr != nil { ... }  // guard before formatting span names
//
// without any configuration plumbing. Instrumented components implement
// Instrumentable and are wired by the harness after construction; a run
// that never calls Instrument is byte-identical to one built before this
// package existed, and instrumentation draws no randomness of its own.
//
// The registry is intentionally not goroutine-safe: a simulation is
// single-threaded, and the parallel experiment harness gives every run its
// own engine, stats sink, and registry.
package metrics

import (
	"fmt"
	"sort"

	"macrochip/internal/sim"
)

// Sample is one probed (time, value) observation.
type Sample struct {
	T sim.Time
	V float64
}

// Counter is a monotonically increasing event count, incremented by model
// code on its hot path. A nil Counter (from a nil Registry) is a no-op.
type Counter struct {
	name   string
	v      uint64
	series []Sample
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Name returns the registered name ("" for a nil counter).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Series returns the probed cumulative-count time series; consumers diff
// consecutive samples for rates.
func (c *Counter) Series() []Sample {
	if c == nil {
		return nil
	}
	return c.series
}

// Gauge is a named instantaneous reading, defined by a sample function that
// inspects live model state (channel utilization, queue depth, MSHR
// occupancy). Gauges cost nothing until a Probe samples them.
type Gauge struct {
	name   string
	sample func(now sim.Time) float64
	series []Sample
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Read evaluates the gauge at the given time without recording it.
func (g *Gauge) Read(now sim.Time) float64 { return g.sample(now) }

// Series returns the probed time series.
func (g *Gauge) Series() []Sample { return g.series }

// Registry holds one run's instruments. The zero value of *Registry (nil)
// is the disabled layer: every registration returns a nil (no-op)
// instrument and registers nothing.
type Registry struct {
	names    map[string]bool
	counters []*Counter
	gauges   []*Gauge
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) claim(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.names[name] = true
}

// Counter registers and returns a named counter; nil registry → nil
// counter. Names must be unique within the registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.claim(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers a named sample function; nil registry → no-op.
func (r *Registry) Gauge(name string, sample func(now sim.Time) float64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.gauges = append(r.gauges, &Gauge{name: name, sample: sample})
}

// Counters returns the registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := append([]*Counter(nil), r.counters...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Gauges returns the registered gauges sorted by name.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	out := append([]*Gauge(nil), r.gauges...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len reports the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.counters) + len(r.gauges)
}

// sampleAll appends one observation to every gauge and counter series; the
// Probe drives it from engine events.
func (r *Registry) sampleAll(now sim.Time) {
	for _, g := range r.gauges {
		g.series = append(g.series, Sample{T: now, V: g.sample(now)})
	}
	for _, c := range r.counters {
		c.series = append(c.series, Sample{T: now, V: float64(c.v)})
	}
}

// Observer bundles the optional instrumentation sinks a component can be
// wired to. The zero value is fully disabled.
type Observer struct {
	// Reg receives counters and gauges (nil = disabled).
	Reg *Registry
	// Trace receives serialization/arbitration/setup spans (nil = disabled).
	Trace *Tracer
}

// Enabled reports whether any sink is attached.
func (o Observer) Enabled() bool { return o.Reg != nil || o.Trace != nil }

// Instrumentable is implemented by components that can register instruments
// and trace tracks — the network models, the fault decorator, the coherence
// engine, and the open-loop traffic generator.
type Instrumentable interface {
	Instrument(o Observer)
}

// Instrument wires v to the observer if v is Instrumentable; it reports
// whether anything was wired. A disabled observer is never forwarded, so
// un-instrumented runs take no new code path at all.
func Instrument(v any, o Observer) bool {
	if !o.Enabled() {
		return false
	}
	in, ok := v.(Instrumentable)
	if !ok {
		return false
	}
	in.Instrument(o)
	return true
}
