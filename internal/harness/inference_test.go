package harness

import (
	"strings"
	"testing"

	"macrochip/internal/expcache"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
)

// inferenceCSV runs the quick sweep on the given runner and renders it.
func inferenceCSV(t *testing.T, r Runner, cfg InferenceConfig) string {
	t.Helper()
	points, err := InferenceStudyWith(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteInferenceCSV(&b, points); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenInferenceCSV pins the exact bytes of the quick inference sweep
// — every network × every preset. The same config backs `cmd/inference
// -quick` and the daemon's quick inference experiment, so this golden is
// the cross-frontend byte-identity anchor.
func TestGoldenInferenceCSV(t *testing.T) {
	csv := inferenceCSV(t, Serial, QuickInferenceConfig())
	checkGolden(t, "inference.csv.golden", []byte(csv))
}

// TestInferenceWorkerCountInvariance: the sweep is byte-identical at -j 1
// and -j 8 (seeds are pure functions of point identity, results slotted by
// index).
func TestInferenceWorkerCountInvariance(t *testing.T) {
	serial := inferenceCSV(t, Runner{Workers: 1}, QuickInferenceConfig())
	parallel := inferenceCSV(t, Runner{Workers: 8}, QuickInferenceConfig())
	if serial != parallel {
		t.Fatal("inference CSV differs between -j 1 and -j 8")
	}
}

// TestInferenceCacheDeterminism: uncached, cold-cache, and warm-cache runs
// all produce byte-identical CSV, and the warm run is served entirely from
// the cache.
func TestInferenceCacheDeterminism(t *testing.T) {
	cfg := QuickInferenceConfig()
	cfg.Networks = []networks.Kind{networks.PointToPoint, networks.TwoPhase}
	uncached := inferenceCSV(t, Serial, cfg)

	cache, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := inferenceCSV(t, Runner{Workers: 1, Cache: cache}, cfg)
	warm := inferenceCSV(t, Runner{Workers: 8, Cache: cache}, cfg)
	if cold != uncached {
		t.Error("cold-cache CSV differs from uncached")
	}
	if warm != uncached {
		t.Error("warm-cache CSV differs from uncached")
	}
	st := cache.Stats()
	points := len(cfg.graphs()) * 2 // 2 networks × graphs × 1 batch × 1 seq
	if int(st.Misses) != points {
		t.Errorf("cold run recorded %d misses, want %d", st.Misses, points)
	}
	if int(st.Hits) != points {
		t.Errorf("warm run recorded %d hits, want %d", st.Hits, points)
	}
}

func TestInferenceStudyValidation(t *testing.T) {
	cfg := QuickInferenceConfig()
	cfg.Graphs = []string{"no-such-graph"}
	if _, err := InferenceStudyWith(Runner{}, cfg); err == nil {
		t.Error("unknown graph name accepted")
	} else if !strings.Contains(err.Error(), "decode-attention") {
		t.Errorf("error %q does not enumerate presets", err)
	}
	cfg = QuickInferenceConfig()
	cfg.Batches = []int{0}
	if _, err := InferenceStudyWith(Runner{}, cfg); err == nil {
		t.Error("batch 0 accepted")
	}
	cfg = QuickInferenceConfig()
	cfg.SeqLens = []int{-1}
	if _, err := InferenceStudyWith(Runner{}, cfg); err == nil {
		t.Error("negative seq accepted")
	}
	cfg = QuickInferenceConfig()
	cfg.PacketBytes = -1
	if _, err := InferenceStudyWith(Runner{}, cfg); err == nil {
		t.Error("negative MTU accepted")
	} else if !strings.Contains(err.Error(), "MTU") {
		t.Errorf("negative-MTU error %q does not mention the MTU", err)
	}
}

// TestInferenceCustomGraph: a user-supplied DAG rides the same study
// machinery, and its cache key covers the graph content.
func TestInferenceCustomGraph(t *testing.T) {
	cfg := QuickInferenceConfig()
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Custom = &opgraph.Graph{
		Name: "custom",
		Ops: []opgraph.Op{
			{Kind: opgraph.Attention, Site: 0, Compute: 100},
			{Kind: opgraph.AllReduce, Site: 9, Compute: 50},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 8192}},
	}
	points, err := InferenceStudyWith(Runner{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Graph != "custom" || points[0].Ops != 2 {
		t.Fatalf("custom study points = %+v", points)
	}
	if points[0].Stalled || points[0].CollectivePkts == 0 {
		t.Errorf("custom replay incomplete: %+v", points[0])
	}

	// Two different custom graphs under the same name must key differently.
	other := &opgraph.Graph{
		Name: "custom",
		Ops: []opgraph.Op{
			{Kind: opgraph.Attention, Site: 0, Compute: 100},
			{Kind: opgraph.AllReduce, Site: 9, Compute: 50},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 4096}},
	}
	cfgB := cfg
	cfgB.Custom = other
	ka := cellKey(CellInference, mustMarshal(t, specForInference(cfg, networks.PointToPoint, "custom", 1, 16)))
	kb := cellKey(CellInference, mustMarshal(t, specForInference(cfgB, networks.PointToPoint, "custom", 1, 16)))
	if ka == kb {
		t.Error("cache keys collide for different custom graphs sharing a name")
	}
}
