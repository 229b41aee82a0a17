package harness

import (
	"fmt"
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
)

// The inference study replays operator graphs (internal/opgraph) — the
// dependency-scheduled, bandwidth-bursty traffic of LLM inference — across
// the six networks, at a grid of batch/sequence scale points. Where the
// figure-6 study asks "how much uniform random load can each network
// absorb", this one asks "how fast does each network finish a fixed
// dependency structure", which is the question multi-chip inference systems
// actually pose.

// InferenceConfig describes one inference sweep.
type InferenceConfig struct {
	Params core.Params
	// Networks selects the network axis; nil means all six.
	Networks []networks.Kind
	// Graphs names the built-in presets to replay; nil means all of
	// opgraph.PresetNames() (or just Custom when one is supplied).
	Graphs []string
	// Custom, when non-nil, is a user-supplied graph (cmd/inference
	// -graph-json) addressed by its Name in the Graphs axis.
	Custom *opgraph.Graph
	// Batches and SeqLens are the scale axes fed to the graph presets;
	// nil means {1} and {16}. A custom graph ignores them (its structure
	// is fixed) but still sweeps once per pair for uniform row identity.
	Batches []int
	SeqLens []int
	// PacketBytes is the transfer MTU. Zero defers to the graph's own MTU
	// and then opgraph.DefaultMTU; negative values are rejected by validate.
	PacketBytes int
	// JitterFrac adds seeded compute-window jitter (straggler modeling).
	JitterFrac float64
	Seed       int64
}

// DefaultInferenceConfig sweeps every preset on every network at two batch
// and two sequence scale points.
func DefaultInferenceConfig() InferenceConfig {
	return InferenceConfig{
		Params:  core.DefaultParams(),
		Batches: []int{1, 8},
		SeqLens: []int{16, 64},
		Seed:    1,
	}
}

// QuickInferenceConfig is the one-point-per-graph sweep shared verbatim by
// the golden-CSV test, `cmd/inference -quick`, and the daemon's quick
// inference experiment — the acceptance surface for cross-frontend
// byte-identity.
func QuickInferenceConfig() InferenceConfig {
	return InferenceConfig{
		Params:  core.DefaultParams(),
		Batches: []int{1},
		SeqLens: []int{16},
		Seed:    1,
	}
}

// InferencePoint is one (network, graph, batch, seq) cell of the sweep.
type InferencePoint struct {
	Network    networks.Kind
	Graph      string
	Batch, Seq int
	// Ops and Edges describe the replayed graph's size.
	Ops, Edges int
	// Makespan is the completion time of the last operator.
	Makespan sim.Time
	// DeliveredGBs is the average network goodput over the makespan:
	// delivered tensor payload / makespan.
	DeliveredGBs float64
	MeanLatency  sim.Time
	// TensorPkts and CollectivePkts are the per-class delivery counts —
	// the split between point-to-point activations and collective chunks.
	TensorPkts     uint64
	CollectivePkts uint64
	Transfers      int
	BytesMoved     uint64
	// Retries and Aborts are always zero: the replay runs on a loss-free
	// network and never retransmits. They keep the CSV's columns.
	Retries uint64
	Aborts  uint64
	// Stalled marks a replay that deadlocked on lost dependencies.
	Stalled bool
	// Events counts kernel events dispatched by the replay (the benchmark
	// denominator; not a CSV column).
	Events uint64
}

// InferenceSeed derives one replay's seed purely from its identity, with
// the same any-worker-count reproducibility guarantee as PointSeed.
func InferenceSeed(base int64, k networks.Kind, graph string, batch, seq int) int64 {
	return sim.DeriveSeed(base,
		sim.StringLabel(string(k)), sim.StringLabel(graph), uint64(batch), uint64(seq))
}

// GraphSeed derives the graph-construction seed. It deliberately excludes
// the network: all six networks replay the structurally identical graph, so
// makespans are comparable across the network axis.
func GraphSeed(base int64, graph string, batch, seq int) int64 {
	return sim.DeriveSeed(base,
		sim.StringLabel("opgraph-build"), sim.StringLabel(graph), uint64(batch), uint64(seq))
}

// inferenceGraph materializes the graph for one cell.
func inferenceGraph(cfg InferenceConfig, graph string, batch, seq int) (*opgraph.Graph, error) {
	if cfg.Custom != nil && cfg.Custom.Name == graph {
		return cfg.Custom, nil
	}
	return opgraph.Preset(graph, cfg.Params.Grid, batch, seq, GraphSeed(cfg.Seed, graph, batch, seq))
}

// RunInferencePoint replays one cell: the graph built from the cell's pure
// construction seed, replayed on a fresh network.
func RunInferencePoint(cfg InferenceConfig, k networks.Kind, graph string, batch, seq int) (InferencePoint, error) {
	g, err := inferenceGraph(cfg, graph, batch, seq)
	if err != nil {
		return InferencePoint{}, err
	}
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	r := &opgraph.Replay{
		Eng:         eng,
		Params:      cfg.Params,
		Net:         networks.MustNew(k, eng, cfg.Params, stats),
		Graph:       g,
		PacketBytes: cfg.PacketBytes,
		Seed:        InferenceSeed(cfg.Seed, k, graph, batch, seq),
		JitterFrac:  cfg.JitterFrac,
	}
	if err := r.Start(); err != nil {
		return InferencePoint{}, err
	}
	eng.Run()
	res := r.Result()
	pt := InferencePoint{
		Network:        k,
		Graph:          graph,
		Batch:          batch,
		Seq:            seq,
		Ops:            len(g.Ops),
		Edges:          len(g.Edges),
		Makespan:       res.Makespan,
		MeanLatency:    stats.MeanLatency(),
		TensorPkts:     stats.PerClass[core.ClassTensor],
		CollectivePkts: stats.PerClass[core.ClassCollective],
		Transfers:      res.TransfersDone,
		BytesMoved:     res.BytesMoved,
		Stalled:        res.Stalled,
		Events:         eng.Executed(),
	}
	if res.Makespan > 0 {
		// bytes/ps → GB/s, as in Stats.ThroughputGBs.
		pt.DeliveredGBs = float64(res.BytesMoved) / float64(res.Makespan) * 1000
	}
	return pt, nil
}

// validate checks the sweep axes before fan-out, so a bad graph name or MTU
// fails fast instead of surfacing from the middle of a parallel study.
func (cfg InferenceConfig) validate() error {
	if cfg.PacketBytes < 0 {
		return fmt.Errorf("harness: inference MTU %d is negative (use 0 for the %d-byte default)",
			cfg.PacketBytes, opgraph.DefaultMTU)
	}
	for _, g := range cfg.graphs() {
		if cfg.Custom != nil && cfg.Custom.Name == g {
			if err := cfg.Custom.Validate(cfg.Params.Grid); err != nil {
				return err
			}
			continue
		}
		found := false
		for _, p := range opgraph.PresetNames() {
			if p == g {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("harness: unknown inference graph %q (presets: %s)",
				g, strings.Join(opgraph.PresetNames(), ", "))
		}
	}
	for _, b := range cfg.batches() {
		if b < 1 {
			return fmt.Errorf("harness: inference batch %d < 1", b)
		}
	}
	for _, s := range cfg.seqLens() {
		if s < 1 {
			return fmt.Errorf("harness: inference seq %d < 1", s)
		}
	}
	return nil
}

func (cfg InferenceConfig) graphs() []string {
	if cfg.Graphs != nil {
		return cfg.Graphs
	}
	if cfg.Custom != nil {
		return []string{cfg.Custom.Name}
	}
	return opgraph.PresetNames()
}

func (cfg InferenceConfig) batches() []int {
	if cfg.Batches != nil {
		return cfg.Batches
	}
	return []int{1}
}

func (cfg InferenceConfig) seqLens() []int {
	if cfg.SeqLens != nil {
		return cfg.SeqLens
	}
	return []int{16}
}

// InferenceStudyWith sweeps network × graph × batch × seq on the Runner.
// Points are slotted by index and seeded by InferenceSeed/GraphSeed, so
// output is byte-identical at every worker count.
func InferenceStudyWith(r Runner, cfg InferenceConfig) ([]InferencePoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kinds := cfg.Networks
	if kinds == nil {
		kinds = networks.Six()
	}
	graphs, batches, seqs := cfg.graphs(), cfg.batches(), cfg.seqLens()
	cells := make([]cell[InferencePoint], 0, len(kinds)*len(graphs)*len(batches)*len(seqs))
	for _, k := range kinds {
		for _, g := range graphs {
			for _, b := range batches {
				for _, s := range seqs {
					cells = append(cells, newCell(CellInference, specForInference(cfg, k, g, b, s), func() InferencePoint {
						return runInference(cfg, k, g, b, s)
					}))
				}
			}
		}
	}
	return runCells(r, cells), nil
}

// RenderInference renders the sweep as an aligned text table, one row per
// (network, graph, batch, seq) point.
func RenderInference(points []InferencePoint) string {
	var b strings.Builder
	b.WriteString("Inference replay — operator-graph makespan per network\n")
	fmt.Fprintf(&b, "%-24s %-20s %6s %5s %6s %8s %13s %12s %10s %8s %8s\n",
		"network", "graph", "batch", "seq", "ops", "edges", "makespan (ns)", "thru (GB/s)", "mean (ns)", "retries", "stalled")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-24s %-20s %6d %5d %6d %8d %13.1f %12.1f %10.1f %8d %8v\n",
			pt.Network, pt.Graph, pt.Batch, pt.Seq, pt.Ops, pt.Edges,
			pt.Makespan.Nanoseconds(), pt.DeliveredGBs, pt.MeanLatency.Nanoseconds(),
			pt.Retries, pt.Stalled)
	}
	return b.String()
}
