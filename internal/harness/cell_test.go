package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"macrochip/internal/cpu"
	"macrochip/internal/expcache"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// cachedLoadPoint is RunLoadPoint behind the cache and the Runner's fleet:
// one figure-6 cell on its own.
func cachedLoadPoint(r Runner, cfg LoadPointConfig) LoadPoint {
	return newCell(CellLoadPoint, specForLoadPoint(cfg)).run(r.Cache, r.Dist)
}

// unknownFieldSpec is a load-point spec carrying a field this build does
// not know; RunCell must reject it (TestDistSpecUnknownFieldRejected).
const unknownFieldSpec = `{"params":{},"bogus_field":1}`

// cellKinds are the wire cell kinds, indexed by FuzzCellSpec's kind byte.
var cellKinds = []string{CellLoadPoint, CellBenchCell, CellResilience, CellInference}

// testCustomGraph is a small user-supplied DAG for the inference specs.
func testCustomGraph(edgeBytes int) *opgraph.Graph {
	return &opgraph.Graph{
		Name: "custom",
		Ops: []opgraph.Op{
			{Kind: opgraph.Attention, Site: 0, Compute: 100},
			{Kind: opgraph.AllReduce, Site: 9, Compute: 50},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: edgeBytes}},
	}
}

// cellSpecCase is one wire spec with the direct in-process call RunCell
// must reproduce from it.
type cellSpecCase struct {
	name, kind string
	spec       any
	direct     func() (any, error)
}

// cellSpecCases returns one spec per cell kind plus an inference spec that
// carries a custom graph — the TestCellSpecsRoundTrip table and the
// FuzzCellSpec seed corpus.
func cellSpecCases() []cellSpecCase {
	lp := quickCfg()
	lp.Network = networks.PointToPoint
	lp.Pattern = traffic.Uniform{Grid: lp.Params.Grid}
	lp.Load = 0.02
	lp.Seed = PointSeed(1, lp.Network, "uniform", lp.Load)

	bench := workload.All(lp.Params.Grid, workload.Scale(0.01))[0]
	seed := CellSeed(1, bench.Name, networks.PointToPoint)

	rc := quickResilienceCfg()

	ic := QuickInferenceConfig()
	graph := opgraph.PresetNames()[0]
	custom := QuickInferenceConfig()
	custom.Custom = testCustomGraph(8192)

	return []cellSpecCase{
		{"loadpoint", CellLoadPoint, specForLoadPoint(lp), func() (any, error) {
			return RunLoadPoint(lp), nil
		}},
		{"benchcell", CellBenchCell, specForBenchCell(bench, networks.PointToPoint, lp.Params, seed), func() (any, error) {
			return RunBenchmark(bench, networks.PointToPoint, lp.Params, seed), nil
		}},
		{"resilience", CellResilience, specForResilience(rc, networks.PointToPoint, fault.DarkLaser, 80), func() (any, error) {
			return RunResiliencePoint(rc, networks.PointToPoint, fault.DarkLaser, 80), nil
		}},
		{"inference", CellInference, specForInference(ic, networks.PointToPoint, graph, 1, 16), func() (any, error) {
			return RunInferencePoint(ic, networks.PointToPoint, graph, 1, 16)
		}},
		{"inference custom graph", CellInference, specForInference(custom, networks.PointToPoint, "custom", 1, 16), func() (any, error) {
			return RunInferencePoint(custom, networks.PointToPoint, "custom", 1, 16)
		}},
	}
}

// TestCellSpecsRoundTrip pins that every cell kind's wire spec round-trips
// through JSON into a config whose execution matches the direct in-process
// call — the worker side of the byte-identity argument. The traffic
// pattern travels by Name and is rebuilt via traffic.ByName; everything
// else, a custom graph included, travels by value.
func TestCellSpecsRoundTrip(t *testing.T) {
	for _, tc := range cellSpecCases() {
		v, err := RunCell(Serial, tc.kind, mustMarshal(t, tc.spec))
		if err != nil {
			t.Fatalf("RunCell(%s): %v", tc.name, err)
		}
		want, err := tc.direct()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, v), mustMarshal(t, want); !bytes.Equal(got, want) {
			t.Errorf("%s round-trip: %s != %s", tc.name, got, want)
		}
	}
}

// TestRunCellBadNamesAreErrors pins that RunCell answers a spec it cannot
// run with an error instead of a panic, for every kind: a worker reports
// the cell and keeps serving, and an in-process caller gets the same
// answer.
func TestRunCellBadNamesAreErrors(t *testing.T) {
	cases := cellSpecCases()
	badPattern := cases[0].spec.(loadPointSpec)
	badPattern.Pattern = "no-such-pattern"
	badNetwork := cases[0].spec.(loadPointSpec)
	badNetwork.Network = "no-such-network"
	badBench := cases[1].spec.(benchCellSpec)
	badBench.Pattern = "no-such-pattern"
	badClass := cases[2].spec.(resilienceSpec)
	badClass.Class = "no-such-class"
	badGraph := cases[3].spec.(inferenceSpec)
	badGraph.Graph = "no-such-graph"
	for _, tc := range []struct {
		name, kind string
		spec       any
	}{
		{"pattern", CellLoadPoint, badPattern},
		{"network", CellLoadPoint, badNetwork},
		{"bench pattern", CellBenchCell, badBench},
		{"class", CellResilience, badClass},
		{"graph", CellInference, badGraph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := RunCell(Serial, tc.kind, mustMarshal(t, tc.spec))
			if err == nil || v != nil {
				t.Fatalf("RunCell = %v, %v; want an error and no value", v, err)
			}
		})
	}
}

// TestCellKey pins the cache-key scheme: equal specs give equal keys, and
// changing any field — string, int, float (−0 against 0 included), a
// nested parameter, a custom graph's content under the same name — or the
// cell kind gives a different key.
func TestCellKey(t *testing.T) {
	key := func(kind string, spec any) expcache.Key { return cellKey(kind, mustMarshal(t, spec)) }

	lp := quickCfg()
	lp.Network = networks.PointToPoint
	lp.Pattern = traffic.Uniform{Grid: lp.Params.Grid}
	lp.Load = 0
	base := specForLoadPoint(lp)
	if key(CellLoadPoint, base) != key(CellLoadPoint, specForLoadPoint(lp)) {
		t.Fatal("equal specs give different keys")
	}

	variant := func(edit func(*loadPointSpec)) loadPointSpec {
		s := base
		edit(&s)
		return s
	}
	ic := QuickInferenceConfig()
	ic.Custom = testCustomGraph(8192)
	other := ic
	other.Custom = testCustomGraph(4096)

	keys := []struct {
		name string
		key  expcache.Key
	}{
		{"base", key(CellLoadPoint, base)},
		{"string", key(CellLoadPoint, variant(func(s *loadPointSpec) { s.Pattern = "transpose" }))},
		{"int", key(CellLoadPoint, variant(func(s *loadPointSpec) { s.PacketBytes++ }))},
		{"float", key(CellLoadPoint, variant(func(s *loadPointSpec) { s.Load = 0.02 }))},
		{"-0", key(CellLoadPoint, variant(func(s *loadPointSpec) { s.Load = math.Copysign(0, -1) }))},
		{"nested param", key(CellLoadPoint, variant(func(s *loadPointSpec) { s.Params.CoreGHz += 0.5 }))},
		{"kind", key(CellResilience, base)},
		{"custom graph", key(CellInference, specForInference(ic, networks.PointToPoint, "custom", 1, 16))},
		{"custom graph content", key(CellInference, specForInference(other, networks.PointToPoint, "custom", 1, 16))},
	}
	for i, a := range keys {
		for _, b := range keys[:i] {
			if a.key == b.key {
				t.Errorf("%s and %s share a key", a.name, b.name)
			}
		}
	}
}

// TestWorkerPublishesCoordinatorKey pins the rendezvous: a cell a worker
// computes through RunCell lands under exactly the key the study entry
// point asking for the same cell looks up, so the study counts a hit and
// no new miss.
func TestWorkerPublishesCoordinatorKey(t *testing.T) {
	base := quickCfg()
	lp := base
	lp.Network = networks.PointToPoint
	lp.Pattern = traffic.Uniform{Grid: lp.Params.Grid}
	lp.Load = 0.02
	lp.Seed = PointSeed(base.Seed, lp.Network, "uniform", lp.Load)

	bench := workload.All(base.Params.Grid, workload.Scale(0.01))[0]

	rc := quickResilienceCfg()
	rc.Networks = []networks.Kind{networks.PointToPoint}
	rc.Classes = []fault.Class{fault.DarkLaser}
	rc.Rates = []float64{80}

	ic := QuickInferenceConfig()
	graph := opgraph.PresetNames()[0]
	ic.Networks = []networks.Kind{networks.PointToPoint}
	ic.Graphs = []string{graph}

	cases := []struct {
		kind  string
		spec  any
		study func(Runner) error
	}{
		{CellLoadPoint, specForLoadPoint(lp), func(r Runner) error {
			_, err := Figure6PanelWith(r, base, "uniform", []networks.Kind{networks.PointToPoint}, []float64{lp.Load})
			return err
		}},
		{CellBenchCell, specForBenchCell(bench, networks.PointToPoint, base.Params, CellSeed(1, bench.Name, networks.PointToPoint)), func(r Runner) error {
			RunStudyWith(r, []cpu.Benchmark{bench}, []networks.Kind{networks.PointToPoint}, base.Params, 1)
			return nil
		}},
		{CellResilience, specForResilience(rc, networks.PointToPoint, fault.DarkLaser, 80), func(r Runner) error {
			ResilienceStudyWith(r, rc)
			return nil
		}},
		{CellInference, specForInference(ic, networks.PointToPoint, graph, 1, 16), func(r Runner) error {
			_, err := InferenceStudyWith(r, ic)
			return err
		}},
	}
	for _, tc := range cases {
		c := openTestCache(t)
		if _, err := RunCell(Runner{Cache: c}, tc.kind, mustMarshal(t, tc.spec)); err != nil {
			t.Fatalf("RunCell(%s): %v", tc.kind, err)
		}
		worker := c.Stats()
		if worker.Misses != 1 {
			t.Fatalf("%s: worker stats %+v, want one miss", tc.kind, worker)
		}
		if err := tc.study(Runner{Workers: 1, Cache: c}); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Misses != worker.Misses || st.Hits != worker.Hits+1 {
			t.Errorf("%s: study after the worker's publish: %+v, want one new hit and no new miss", tc.kind, st)
		}
	}
}

// newSpec returns a fresh spec value of the kind's wire type.
func newSpec(kind string) any {
	switch kind {
	case CellLoadPoint:
		return new(loadPointSpec)
	case CellBenchCell:
		return new(benchCellSpec)
	case CellResilience:
		return new(resilienceSpec)
	default:
		return new(inferenceSpec)
	}
}

// FuzzCellSpec checks the worker's spec decoder: it never panics, and any
// input it accepts re-encodes to bytes that decode and re-encode to the
// same bytes and the same cache key — so the key a worker derives from a
// decoded spec is stable.
func FuzzCellSpec(f *testing.F) {
	for _, tc := range cellSpecCases() {
		for i, k := range cellKinds {
			if k == tc.kind {
				f.Add(byte(i), mustMarshal(f, tc.spec))
			}
		}
	}
	f.Add(byte(0), []byte(unknownFieldSpec))
	f.Fuzz(func(t *testing.T, k byte, data []byte) {
		kind := cellKinds[int(k)%len(cellKinds)]
		first := newSpec(kind)
		if decodeSpec(data, first) != nil {
			return
		}
		enc1, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("accepted %s spec does not re-encode: %v", kind, err)
		}
		second := newSpec(kind)
		if err := decodeSpec(enc1, second); err != nil {
			t.Fatalf("re-encoded %s spec rejected: %v\n%s", kind, err, enc1)
		}
		enc2, err := json.Marshal(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s spec re-encoding unstable:\n%s\n%s", kind, enc1, enc2)
		}
		if cellKey(kind, enc1) != cellKey(kind, enc2) {
			t.Fatalf("%s spec key unstable", kind)
		}
	})
}

// keySink keeps BenchmarkCellKey's result live.
var keySink expcache.Key

// BenchmarkCellKey prices one load point's cache key — marshalling its
// spec and hashing the bytes — the host-side cost every lookup pays.
func BenchmarkCellKey(b *testing.B) {
	cfg := benchLoadPointConfig(networks.PointToPoint)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = newCell(CellLoadPoint, specForLoadPoint(cfg)).key
	}
}
