package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"macrochip/internal/sim"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("b/count")
	r.Gauge("a/gauge", func(now sim.Time) float64 { return float64(now) * 2 })
	h := r.Histogram("c/hist")

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	h.Observe(100)
	h.Observe(200)
	if got := h.Count(); got != 2 {
		t.Fatalf("histogram count = %d, want 2", got)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if g := r.Gauges(); len(g) != 1 || g[0].Name() != "a/gauge" || g[0].Read(21) != 42 {
		t.Fatalf("gauges = %v", g)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Gauge("x", func(sim.Time) float64 { return 0 })
}

// TestNilRegistryDisabled pins the zero-cost-when-disabled contract: a nil
// registry hands out nil instruments whose hot-path methods are no-ops with
// zero allocations.
func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("anything")
	h := r.Histogram("anything")
	r.Gauge("anything", nil)
	if c != nil || h != nil || r.Len() != 0 {
		t.Fatal("nil registry returned live instruments")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(10)
	})
	if allocs > 0 {
		t.Fatalf("disabled instruments allocated %.1f per op, want 0", allocs)
	}
	if c.Value() != 0 || c.Name() != "" || h.Count() != 0 || h.Percentile(99) != 0 {
		t.Fatal("nil instrument reads are not zero")
	}
}

func TestProbeSampling(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Gauge("clock", func(now sim.Time) float64 { return float64(now) })
	c := r.Counter("events")
	p := NewProbe(eng, r, 10*sim.Nanosecond)
	p.Start(100 * sim.Nanosecond)
	eng.Schedule(35*sim.Nanosecond, func() { c.Inc() })
	eng.RunUntil(200 * sim.Nanosecond)

	if p.Samples != 10 {
		t.Fatalf("Samples = %d, want 10 (every 10 ns through 100 ns)", p.Samples)
	}
	g := r.Gauges()[0]
	series := g.Series()
	if len(series) != 10 {
		t.Fatalf("gauge series length = %d, want 10", len(series))
	}
	for i, s := range series {
		want := sim.Time(i+1) * 10 * sim.Nanosecond
		if s.T != want || s.V != float64(want) {
			t.Fatalf("series[%d] = {%v %v}, want t=v=%v", i, s.T, s.V, want)
		}
	}
	// Counter series: 0 before the 35 ns increment, 1 after.
	cs := r.Counters()[0].Series()
	if cs[2].V != 0 || cs[3].V != 1 || cs[9].V != 1 {
		t.Fatalf("counter series = %v", cs)
	}
}

func TestTracerJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	site := tr.Track("site 0")
	eng := tr.Track("engine")
	if again := tr.Track("site 0"); again != site {
		t.Fatalf("re-registering a track returned %d, want %d", again, site)
	}
	tr.Span(site, "chan", "serialize", 1000, 3000)
	tr.Instant(site, "arb", "wasted-slot", 2000)
	tr.CounterSample(eng, "dispatched", 4000, 128)
	if tr.Events() != 3 {
		t.Fatalf("Events = %d, want 3", tr.Events())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if out.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	// Two thread_name metadata records, then the three events in order.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("traceEvents length = %d, want 5", len(out.TraceEvents))
	}
	if out.TraceEvents[0].Ph != "M" || out.TraceEvents[0].Args["name"] != "site 0" {
		t.Fatalf("first metadata record = %+v", out.TraceEvents[0])
	}
	span := out.TraceEvents[2]
	if span.Ph != "X" || span.Name != "serialize" || span.TS != 0.001 || span.Dur != 0.002 {
		t.Fatalf("span = %+v (ps→µs conversion broken?)", span)
	}
	if span.TID != int(site)+1 {
		t.Fatalf("span tid = %d, want %d", span.TID, int(site)+1)
	}
}

func TestNilTracerWritesEmptyTrace(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span(0, "c", "n", 0, 1)
	tr.Instant(0, "c", "n", 0)
	tr.CounterSample(0, "n", 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil-tracer JSON invalid: %v", err)
	}
	if evs, ok := out["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("nil-tracer traceEvents = %v", out["traceEvents"])
	}
}

func TestTracerAttachEngine(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer()
	tr.AttachEngine(eng, 2)
	for i := 0; i < 6; i++ {
		eng.Schedule(sim.Time(i+1), func() {})
	}
	eng.Run()
	// 6 dispatches, one counter sample every 2 → 3 events.
	if tr.Events() != 3 {
		t.Fatalf("Events = %d, want 3", tr.Events())
	}
}

// TestObserverInstrument checks the wiring helper: disabled observers are
// never forwarded, non-instrumentable values report false.
func TestObserverInstrument(t *testing.T) {
	var calls int
	v := instrumentable{f: func(o Observer) { calls++ }}
	if Instrument(v, Observer{}) {
		t.Fatal("disabled observer was forwarded")
	}
	if Instrument(struct{}{}, Observer{Reg: NewRegistry()}) {
		t.Fatal("non-instrumentable value reported wired")
	}
	if !Instrument(v, Observer{Reg: NewRegistry()}) || calls != 1 {
		t.Fatalf("instrumentable not wired (calls=%d)", calls)
	}
}

type instrumentable struct{ f func(Observer) }

func (i instrumentable) Instrument(o Observer) { i.f(o) }

// BenchmarkDisabledInstruments mirrors BenchmarkEngineSchedule's role as an
// allocation guard: nil instruments on the model hot path must cost one
// predictable branch and zero allocations per op.
func BenchmarkDisabledInstruments(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(sim.Time(i))
	}
	if c.Value() != 0 {
		b.Fatal("nil counter accumulated")
	}
}
