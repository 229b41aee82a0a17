package opgraph_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"macrochip/internal/geometry"
	"macrochip/internal/opgraph"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func testGrid() geometry.Grid { return geometry.Grid{N: 4, PitchCM: 2.25} }

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range opgraph.Kinds() {
		got, err := opgraph.ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v → %q → %v", k, k.String(), got)
		}
	}
	if _, err := opgraph.ParseKind("softmax"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
	if s := opgraph.Kind(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("unknown kind String = %q", s)
	}
}

func TestKindCollective(t *testing.T) {
	want := map[opgraph.Kind]bool{opgraph.AllReduce: true, opgraph.AllGather: true}
	for _, k := range opgraph.Kinds() {
		if k.Collective() != want[k] {
			t.Errorf("%v.Collective() = %v", k, k.Collective())
		}
	}
}

func TestValidateErrors(t *testing.T) {
	grid := testGrid()
	ok := func() *opgraph.Graph {
		return &opgraph.Graph{
			Name: "t",
			Ops: []opgraph.Op{
				{Kind: opgraph.Attention, Site: 0, Compute: 10},
				{Kind: opgraph.FFN, Site: 1, Compute: 10},
			},
			Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 64}},
		}
	}
	if err := ok().Validate(grid); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*opgraph.Graph)
		want   string
	}{
		{"no ops", func(g *opgraph.Graph) { g.Ops = nil }, "no operators"},
		{"bad kind", func(g *opgraph.Graph) { g.Ops[0].Kind = 99 }, "unknown kind"},
		{"bad site", func(g *opgraph.Graph) { g.Ops[1].Site = 16 }, "outside"},
		{"negative compute", func(g *opgraph.Graph) { g.Ops[0].Compute = -1 }, "negative compute"},
		{"edge out of range", func(g *opgraph.Graph) { g.Edges[0].To = 7 }, "outside"},
		{"self loop", func(g *opgraph.Graph) { g.Edges[0].To = 0 }, "self-loop"},
		{"negative bytes", func(g *opgraph.Graph) { g.Edges[0].Bytes = -5 }, "negative size"},
		{"negative mtu", func(g *opgraph.Graph) { g.MTU = -1 }, "negative MTU"},
		{"cycle", func(g *opgraph.Graph) {
			g.Edges = append(g.Edges, opgraph.Edge{From: 1, To: 0, Bytes: 1})
		}, "cycle"},
	}
	for _, tc := range cases {
		g := ok()
		tc.mutate(g)
		err := g.Validate(grid)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestTotalAndCrossSiteBytes(t *testing.T) {
	g := &opgraph.Graph{
		Name: "t",
		Ops: []opgraph.Op{
			{Kind: opgraph.Pointwise, Site: 0, Compute: 1},
			{Kind: opgraph.Pointwise, Site: 0, Compute: 1},
			{Kind: opgraph.Pointwise, Site: 1, Compute: 1},
		},
		Edges: []opgraph.Edge{
			{From: 0, To: 1, Bytes: 100}, // same site
			{From: 1, To: 2, Bytes: 30},  // cross site
			{From: 0, To: 2, Bytes: 0},   // ordering only
		},
	}
	if err := g.Validate(testGrid()); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalBytes(); got != 130 {
		t.Errorf("TotalBytes = %d, want 130", got)
	}
	if got := g.CrossSiteBytes(); got != 30 {
		t.Errorf("CrossSiteBytes = %d, want 30", got)
	}
}

func TestPresetsBuildAndValidate(t *testing.T) {
	grid := testGrid()
	for _, name := range opgraph.PresetNames() {
		g, err := opgraph.Preset(name, grid, 2, 8, 1)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if g.Name != name {
			t.Errorf("Preset(%q).Name = %q", name, g.Name)
		}
		if len(g.Ops) == 0 || len(g.Edges) == 0 {
			t.Errorf("Preset(%q) is trivial: %d ops, %d edges", name, len(g.Ops), len(g.Edges))
		}
		if g.CrossSiteBytes() == 0 {
			t.Errorf("Preset(%q) offers no network traffic", name)
		}
	}
}

func TestPresetConstructionDeterministic(t *testing.T) {
	grid := testGrid()
	for _, name := range opgraph.PresetNames() {
		a, err := opgraph.Preset(name, grid, 3, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opgraph.Preset(name, grid, 3, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Preset(%q) differs across identical calls", name)
		}
	}
	// MoE routing is the one seeded choice: a different seed must reroute.
	a, _ := opgraph.Preset("moe-64-expert", grid, 8, 1, 1)
	b, _ := opgraph.Preset("moe-64-expert", grid, 8, 1, 2)
	if reflect.DeepEqual(a, b) {
		t.Error("moe-64-expert ignored its seed")
	}
}

// TestPresetsSizedExactly pins that every preset counts its ops and edges
// before it builds them: each slice is allocated once at its final size,
// and no append regrows it.
func TestPresetsSizedExactly(t *testing.T) {
	for _, grid := range []geometry.Grid{{N: 8, PitchCM: 2.25}, testGrid()} {
		for _, name := range opgraph.PresetNames() {
			for _, batch := range []int{1, 8} {
				g, err := opgraph.Preset(name, grid, batch, 16, 1)
				if err != nil {
					t.Fatal(err)
				}
				if cap(g.Ops) != len(g.Ops) || cap(g.Edges) != len(g.Edges) {
					t.Errorf("%s on %d×%d at batch %d: ops %d of cap %d, edges %d of cap %d",
						name, grid.N, grid.N, batch, len(g.Ops), cap(g.Ops), len(g.Edges), cap(g.Edges))
				}
			}
		}
	}
}

// TestValidateAllocsFixed pins that Validate's adjacency is one offsets
// array and one flat edge list, so its allocations do not grow with the
// graph: the 2,080-edge and 32,896-edge prefill graphs cost the same.
func TestValidateAllocsFixed(t *testing.T) {
	var allocs []float64
	var edges []int
	for _, grid := range []geometry.Grid{testGrid(), {N: 8, PitchCM: 2.25}} {
		g, err := opgraph.Preset("prefill", grid, 1, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, len(g.Edges))
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if err := g.Validate(grid); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Fatalf("Validate allocated %v on %d edges and %v on %d edges, want the same, at most 4",
			allocs[0], edges[0], allocs[1], edges[1])
	}
}

func TestPresetErrors(t *testing.T) {
	grid := testGrid()
	if _, err := opgraph.Preset("nope", grid, 1, 1, 1); err == nil {
		t.Error("unknown preset accepted")
	} else if !strings.Contains(err.Error(), "decode-attention") {
		t.Errorf("unknown-preset error %q does not list valid names", err)
	}
	if _, err := opgraph.Preset("prefill", grid, 0, 8, 1); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := opgraph.Preset("prefill", grid, 1, 0, 1); err == nil {
		t.Error("seq 0 accepted")
	}
}

// loadJSONAccept and loadJSONReject are TestLoadJSON's accept and reject
// tables; they also seed FuzzLoadJSON's corpus.
const loadJSONAccept = `{
	"name": "tiny",
	"mtu": 8192,
	"ops": [
		{"kind": "attention", "site": 0, "compute_ps": 200},
		{"kind": "all-reduce", "site": 1, "compute_ps": 100}
	],
	"edges": [{"from": 0, "to": 1, "bytes": 4096}]
}`

var loadJSONReject = []struct{ name, src string }{
	{"unknown field", `{"name":"x","ops":[{"kind":"ffn","site":0,"compute_ps":1,"flops":9}]}`},
	{"unknown kind", `{"name":"x","ops":[{"kind":"softmax","site":0,"compute_ps":1}]}`},
	{"missing name", `{"ops":[{"kind":"ffn","site":0,"compute_ps":1}]}`},
	{"invalid site", `{"name":"x","ops":[{"kind":"ffn","site":99,"compute_ps":1}]}`},
	{"cycle", `{"name":"x","ops":[{"kind":"ffn","site":0,"compute_ps":1},{"kind":"ffn","site":1,"compute_ps":1}],"edges":[{"from":0,"to":1,"bytes":1},{"from":1,"to":0,"bytes":1}]}`},
	{"negative mtu", `{"name":"x","mtu":-4096,"ops":[{"kind":"ffn","site":0,"compute_ps":1}]}`},
	{"not json", `{"name":`},
}

func TestLoadJSON(t *testing.T) {
	grid := testGrid()
	g, err := opgraph.LoadJSON(strings.NewReader(loadJSONAccept), grid)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "tiny" || len(g.Ops) != 2 || len(g.Edges) != 1 {
		t.Fatalf("loaded %+v", g)
	}
	if g.Ops[1].Kind != opgraph.AllReduce {
		t.Errorf("op 1 kind = %v", g.Ops[1].Kind)
	}
	if g.Ops[0].Compute != 200 {
		t.Errorf("op 0 compute = %v", g.Ops[0].Compute)
	}
	if g.MTU != 8192 {
		t.Errorf("MTU = %d, want 8192", g.MTU)
	}

	for _, tc := range loadJSONReject {
		if _, err := opgraph.LoadJSON(strings.NewReader(tc.src), grid); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLoadJSONFile(t *testing.T) {
	grid := testGrid()
	path := t.TempDir() + "/g.json"
	src := `{"name":"file-graph","ops":[{"kind":"pointwise","site":0,"compute_ps":5}]}`
	if err := writeFile(path, src); err != nil {
		t.Fatal(err)
	}
	g, err := opgraph.LoadJSONFile(path, grid)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "file-graph" {
		t.Errorf("Name = %q", g.Name)
	}
	if _, err := opgraph.LoadJSONFile(path+".missing", grid); err == nil {
		t.Error("missing file accepted")
	}
}
