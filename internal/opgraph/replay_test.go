package opgraph_test

import (
	"strings"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
)

func testParams() core.Params {
	p := core.DefaultParams()
	p.Grid = testGrid()
	return p
}

// runGraph replays g on a fresh network and returns the result and sink.
func runGraph(t *testing.T, kind networks.Kind, g *opgraph.Graph, seed int64) (opgraph.Result, *core.Stats) {
	t.Helper()
	p := testParams()
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	net := networks.MustNew(kind, eng, p, stats)
	r := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: g, Seed: seed}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return r.Result(), stats
}

func chainGraph() *opgraph.Graph {
	return &opgraph.Graph{
		Name: "chain",
		Ops: []opgraph.Op{
			{Kind: opgraph.Pointwise, Site: 0, Compute: 100},
			{Kind: opgraph.Attention, Site: 1, Compute: 200},
			{Kind: opgraph.FFN, Site: 2, Compute: 300},
		},
		Edges: []opgraph.Edge{
			{From: 0, To: 1, Bytes: 6000}, // 2 packets at the default MTU
			{From: 1, To: 2, Bytes: 100},
		},
	}
}

func TestReplayLinearChain(t *testing.T) {
	g := chainGraph()
	res, stats := runGraph(t, networks.PointToPoint, g, 1)
	if res.Stalled || res.OpsDone != 3 {
		t.Fatalf("chain did not complete: %+v", res)
	}
	if res.TransfersTotal != 2 || res.TransfersDone != 2 {
		t.Errorf("transfers %d/%d, want 2/2", res.TransfersDone, res.TransfersTotal)
	}
	if res.BytesMoved != g.TotalBytes() {
		t.Errorf("BytesMoved = %d, want %d", res.BytesMoved, g.TotalBytes())
	}
	// The chain serializes: compute alone is 600 ps, plus two transfers.
	if res.Makespan <= 600 {
		t.Errorf("Makespan = %v, want > 600 ps (compute + transfer time)", res.Makespan)
	}
	if stats.Injected != 3 { // 6000 B → 2 packets, 100 B → 1 packet
		t.Errorf("Injected = %d, want 3", stats.Injected)
	}
	if stats.PerClass[core.ClassTensor] != 3 || stats.PerClass[core.ClassCollective] != 0 {
		t.Errorf("per-class deliveries = %v", stats.PerClass)
	}
}

func TestReplayCollectiveClass(t *testing.T) {
	g := &opgraph.Graph{
		Name: "ar",
		Ops: []opgraph.Op{
			{Kind: opgraph.FFN, Site: 0, Compute: 10},
			{Kind: opgraph.AllReduce, Site: 1, Compute: 10},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 64}},
	}
	_, stats := runGraph(t, networks.PointToPoint, g, 1)
	if stats.PerClass[core.ClassCollective] != 1 {
		t.Errorf("collective deliveries = %d, want 1", stats.PerClass[core.ClassCollective])
	}
}

func TestReplaySiteSerialization(t *testing.T) {
	// Two independent ops on one site must serialize through its compute
	// window: makespan is exactly the sum of the windows (no transfers).
	g := &opgraph.Graph{
		Name: "serial",
		Ops: []opgraph.Op{
			{Kind: opgraph.Pointwise, Site: 3, Compute: 100},
			{Kind: opgraph.Pointwise, Site: 3, Compute: 200},
		},
	}
	res, stats := runGraph(t, networks.TokenRing, g, 1)
	if res.Makespan != 300 {
		t.Errorf("Makespan = %v, want exactly 300 (serialized windows)", res.Makespan)
	}
	if stats.Injected != 0 {
		t.Errorf("Injected = %d, want 0", stats.Injected)
	}
}

func TestReplayZeroByteEdgesOrderOnly(t *testing.T) {
	g := &opgraph.Graph{
		Name: "order",
		Ops: []opgraph.Op{
			{Kind: opgraph.Pointwise, Site: 0, Compute: 100},
			{Kind: opgraph.Pointwise, Site: 5, Compute: 100},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 0}},
	}
	res, stats := runGraph(t, networks.TwoPhase, g, 1)
	if stats.Injected != 0 {
		t.Errorf("zero-byte edge injected %d packets", stats.Injected)
	}
	if res.Makespan != 200 {
		t.Errorf("Makespan = %v, want exactly 200 (ordered windows, no transfer)", res.Makespan)
	}
	if res.TransfersTotal != 0 {
		t.Errorf("TransfersTotal = %d, want 0", res.TransfersTotal)
	}
}

func TestReplayDeterministicAcrossRuns(t *testing.T) {
	for _, kind := range networks.Six() {
		g1, err := opgraph.Preset("decode-attention", testGrid(), 2, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := opgraph.Preset("decode-attention", testGrid(), 2, 8, 7)
		a, sa := runGraph(t, kind, g1, 7)
		b, sb := runGraph(t, kind, g2, 7)
		if a != b {
			t.Errorf("%s: results differ across identical runs:\n%+v\n%+v", kind, a, b)
		}
		if sa.Injected != sb.Injected || sa.Delivered != sb.Delivered || sa.MeanLatency() != sb.MeanLatency() {
			t.Errorf("%s: stats differ across identical runs", kind)
		}
		if a.Stalled || a.OpsDone != a.OpsTotal {
			t.Errorf("%s: preset replay incomplete: %+v", kind, a)
		}
	}
}

func TestReplayAllPresetsAllNetworks(t *testing.T) {
	for _, kind := range networks.Six() {
		for _, name := range opgraph.PresetNames() {
			g, err := opgraph.Preset(name, testGrid(), 1, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := runGraph(t, kind, g, 3)
			if res.Stalled || res.OpsDone != res.OpsTotal {
				t.Errorf("%s/%s: incomplete replay: %+v", kind, name, res)
			}
			if res.BytesMoved != g.TotalBytes() {
				t.Errorf("%s/%s: BytesMoved = %d, want %d", kind, name, res.BytesMoved, g.TotalBytes())
			}
		}
	}
}

func TestReplayFaultWrapZeroTransparent(t *testing.T) {
	g, err := opgraph.Preset("tensor-parallel-ffn", testGrid(), 2, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, ps := runGraph(t, networks.LimitedPtP, g, 5)

	p := testParams()
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	inner := networks.MustNew(networks.LimitedPtP, eng, p, stats)
	fnet := fault.Wrap(eng, p, inner, 5)
	r := &opgraph.Replay{Eng: eng, Params: p, Net: fnet, Graph: g, Seed: 5}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	wrapped := r.Result()

	if plain != wrapped {
		t.Errorf("fault wrap at zero faults changed the result:\nplain   %+v\nwrapped %+v", plain, wrapped)
	}
	if ps.Delivered != stats.Delivered || ps.MeanLatency() != stats.MeanLatency() {
		t.Errorf("fault wrap at zero faults changed the stats")
	}
}

// replayUnderLoss runs a cross-site transfer whose source laser is dark,
// returning the result and sink.
func replayUnderLoss(t *testing.T) (opgraph.Result, *core.Stats) {
	t.Helper()
	g := &opgraph.Graph{
		Name: "lossy",
		Ops: []opgraph.Op{
			{Kind: opgraph.Pointwise, Site: 0, Compute: 10},
			{Kind: opgraph.Pointwise, Site: 1, Compute: 10},
		},
		Edges: []opgraph.Edge{{From: 0, To: 1, Bytes: 64}},
	}
	p := testParams()
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	fnet := fault.Wrap(eng, p, networks.MustNew(networks.PointToPoint, eng, p, stats), 1)
	fnet.FailLaser(0)
	r := &opgraph.Replay{Eng: eng, Params: p, Net: fnet, Graph: g, Seed: 1}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return r.Result(), stats
}

func TestReplayStallsOnLossWithoutRetry(t *testing.T) {
	res, stats := replayUnderLoss(t)
	if !res.Stalled || res.OpsDone != 1 {
		t.Fatalf("expected a stalled replay, got %+v", res)
	}
	if stats.Dropped == 0 {
		t.Error("no drops recorded")
	}
}

func TestReplayJitterDeterministic(t *testing.T) {
	g := chainGraph()
	p := testParams()
	run := func(seed int64) opgraph.Result {
		eng := sim.NewEngine()
		stats := core.NewStats(0)
		net := networks.MustNew(networks.TokenRing, eng, p, stats)
		r := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: g, Seed: seed, JitterFrac: 0.3}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return r.Result()
	}
	a, b := run(9), run(9)
	if a != b {
		t.Errorf("jittered replay differs across identical seeds:\n%+v\n%+v", a, b)
	}
	if c := run(10); c.Makespan == a.Makespan {
		t.Errorf("jitter ignored its seed (makespan %v twice)", a.Makespan)
	}
}

func TestReplayStartErrors(t *testing.T) {
	p := testParams()
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	net := networks.MustNew(networks.TokenRing, eng, p, stats)
	bad := &opgraph.Graph{Name: "bad"}
	r := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: bad, Seed: 1}
	if err := r.Start(); err == nil {
		t.Error("Start accepted an invalid graph")
	}
	g := chainGraph()
	r2 := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: g, Seed: 1}
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Start(); err == nil {
		t.Error("Start accepted a second call")
	}
	// A negative MTU is a configuration error (mis-parsed flag or JSON), not
	// a silent fall-through to the default.
	r3 := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: chainGraph(), Seed: 1, PacketBytes: -64}
	if err := r3.Start(); err == nil {
		t.Error("Start accepted a negative MTU")
	} else if !strings.Contains(err.Error(), "negative transfer MTU") {
		t.Errorf("negative-MTU error %q does not name the problem", err)
	}
}

// TestReplayMTUPrecedence pins the MTU resolution order: an explicit
// Replay.PacketBytes wins, then the graph's own MTU, then DefaultMTU. The
// segment counts make each layer observable: a 6000-byte edge is 2 packets
// at the 4096-byte default, 3 at a graph MTU of 2000, 6 at an explicit 1000.
func TestReplayMTUPrecedence(t *testing.T) {
	run := func(graphMTU, packetBytes int) uint64 {
		t.Helper()
		p := testParams()
		eng := sim.NewEngine()
		stats := core.NewStats(0)
		net := networks.MustNew(networks.PointToPoint, eng, p, stats)
		g := chainGraph()
		g.MTU = graphMTU
		r := &opgraph.Replay{Eng: eng, Params: p, Net: net, Graph: g, Seed: 1, PacketBytes: packetBytes}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return stats.Injected
	}
	// Edges: 6000 B + 100 B. ceil(6000/mtu) + 1 packets.
	if got := run(0, 0); got != 3 {
		t.Errorf("default MTU: %d packets, want 3", got)
	}
	if got := run(2000, 0); got != 4 {
		t.Errorf("graph MTU 2000: %d packets, want 4", got)
	}
	if got := run(2000, 1000); got != 7 {
		t.Errorf("explicit MTU 1000 over graph MTU: %d packets, want 7", got)
	}
}
