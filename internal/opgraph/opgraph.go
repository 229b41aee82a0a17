// Package opgraph is the operator-graph (LLM-inference) workload engine:
// a deterministic replay of dependency-scheduled DAGs of typed operators
// (attention, FFN/MoE, collectives, pointwise stages) mapped onto macrochip
// sites. Edges between operators on different sites become tensor transfers
// injected into any of the six networks, so the paper's designs can be
// compared under the bandwidth-bursty, all-to-all-heavy traffic of modern
// multi-chip inference systems — a genuinely different shape from the
// Table-3 synthetic patterns and the SPLASH-2/PARSEC coherence profiles.
//
// The subsystem reuses the existing machinery rather than forking it:
// transfers ride core.Packet and the closure-free ScheduleCall hot path,
// per-class accounting extends core.Stats (ClassTensor/ClassCollective),
// the fault.Network decorator wraps transparently, and every random
// stream derives via sim.DeriveSeed — a replay is a pure function of
// (graph, config, seed).
package opgraph

import (
	"fmt"

	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Kind labels an operator's role in the inference graph. The replay engine
// treats all kinds alike (a compute-occupancy window followed by outbound
// transfers); the kind selects the message class of outbound edges and
// feeds the per-kind instruments.
type Kind uint8

const (
	// Attention is a self-attention stage (QKV projection + score/value
	// matmuls for the site's head shard).
	Attention Kind = iota
	// FFN is a feed-forward (MLP) stage or one tensor-parallel shard of it.
	FFN
	// MoEDispatch is the expert-routing scatter of a mixture-of-experts
	// layer: tokens leave their home site for their routed experts.
	MoEDispatch
	// Expert is one expert FFN of a mixture-of-experts layer.
	Expert
	// MoECombine gathers expert outputs back to the tokens' home sites.
	MoECombine
	// AllReduce is a collective sum over a group (modeled reduce-scatter +
	// all-gather: every member exchanges a 1/group-size chunk with every
	// other member).
	AllReduce
	// AllGather is a collective concatenation over a group.
	AllGather
	// Pointwise is a cheap elementwise stage (layernorm, residual add,
	// router gating).
	Pointwise
	numKinds
)

// Kinds returns every operator kind in declaration order — the iteration
// set for per-kind instruments.
func Kinds() []Kind {
	return []Kind{Attention, FFN, MoEDispatch, Expert, MoECombine, AllReduce, AllGather, Pointwise}
}

// String returns the kind name (also the JSON encoding).
func (k Kind) String() string {
	switch k {
	case Attention:
		return "attention"
	case FFN:
		return "ffn"
	case MoEDispatch:
		return "moe-dispatch"
	case Expert:
		return "expert"
	case MoECombine:
		return "moe-combine"
	case AllReduce:
		return "all-reduce"
	case AllGather:
		return "all-gather"
	case Pointwise:
		return "pointwise"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("opgraph: unknown operator kind %q", s)
}

// Collective reports whether the kind is a collective stage; edges touching
// a collective carry core.ClassCollective, all others core.ClassTensor.
func (k Kind) Collective() bool { return k == AllReduce || k == AllGather }

// Op is one operator: a compute-occupancy window on one macrochip site.
// Ops are identified by their index in Graph.Ops.
type Op struct {
	// Kind labels the operator for statistics and message classing.
	Kind Kind
	// Site is the macrochip site the operator is mapped onto. Two ops on
	// the same site serialize through the site's compute window.
	Site geometry.SiteID
	// Compute is the operator's compute-occupancy window: the site is busy
	// for this long once all inbound transfers have arrived.
	Compute sim.Duration
}

// Edge is one dependency: To may not start until From has finished and the
// edge's tensor has been transferred From.Site → To.Site over the network.
// Same-site edges use the networks' single-cycle intra-site loop-back;
// zero-byte edges are pure ordering constraints and inject nothing.
type Edge struct {
	From, To int
	// Bytes is the tensor size carried by the edge.
	Bytes int
}

// Graph is a validated operator DAG. Build one with a preset (presets.go),
// the JSON loader (json.go), or literally — then call Validate before
// handing it to a Replay.
type Graph struct {
	// Name labels the graph in results and cache keys.
	Name string
	Ops  []Op
	// Edges must describe a DAG over Ops (checked by Validate).
	Edges []Edge
	// MTU, when positive, is the graph's own transfer packet size — a graph
	// authored for a link with a known MTU carries it instead of relying on
	// every caller to pass the right Replay.PacketBytes. Zero means "no
	// opinion" (the replay falls back to DefaultMTU); negative is invalid
	// and rejected by Validate.
	MTU int
}

// Validate checks structural sanity: edge endpoints in range, non-negative
// bytes and compute windows, sites on the grid, and acyclicity (Kahn's
// algorithm). It returns the first problem found.
func (g *Graph) Validate(grid geometry.Grid) error {
	if len(g.Ops) == 0 {
		return fmt.Errorf("opgraph: graph %q has no operators", g.Name)
	}
	if g.MTU < 0 {
		return fmt.Errorf("opgraph: graph %q has negative MTU %d (omit or use 0 for the %d-byte default)", g.Name, g.MTU, DefaultMTU)
	}
	for i, op := range g.Ops {
		if op.Kind >= numKinds {
			return fmt.Errorf("opgraph: op %d has unknown kind %d", i, op.Kind)
		}
		if !grid.Valid(op.Site) {
			return fmt.Errorf("opgraph: op %d mapped to site %d outside the %d×%d grid", i, op.Site, grid.N, grid.N)
		}
		if op.Compute < 0 {
			return fmt.Errorf("opgraph: op %d has negative compute window %v", i, op.Compute)
		}
	}
	indeg := make([]int, len(g.Ops))
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Ops) || e.To < 0 || e.To >= len(g.Ops) {
			return fmt.Errorf("opgraph: edge %d (%d→%d) references ops outside [0, %d)", i, e.From, e.To, len(g.Ops))
		}
		if e.From == e.To {
			return fmt.Errorf("opgraph: edge %d is a self-loop on op %d", i, e.From)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("opgraph: edge %d has negative size %d", i, e.Bytes)
		}
		indeg[e.To]++
	}
	// Kahn's algorithm: repeatedly retire zero-in-degree ops; a leftover
	// means a cycle.
	ready := make([]int, 0, len(g.Ops))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	start, list := g.outEdges()
	retired := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		retired++
		for _, ei := range list[start[n]:start[n+1]] {
			m := g.Edges[ei].To
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if retired != len(g.Ops) {
		return fmt.Errorf("opgraph: graph %q has a dependency cycle (%d of %d ops unreachable)", g.Name, len(g.Ops)-retired, len(g.Ops))
	}
	return nil
}

// outEdges indexes the edges by source op in one flat list, so the
// adjacency costs two allocations whatever the graph's size: the edges
// leaving op i are list[start[i]:start[i+1]], in edge order. Every edge's
// From must be in range.
func (g *Graph) outEdges() (start, list []int32) {
	start = make([]int32, len(g.Ops)+1)
	for _, e := range g.Edges {
		start[e.From+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	list = make([]int32, len(g.Edges))
	for i, e := range g.Edges {
		list[start[e.From]] = int32(i)
		start[e.From]++
	}
	// Placing the edges moved each start[i] to the end of op i's run,
	// which is where op i+1's run begins: shift back by one op.
	copy(start[1:], start)
	start[0] = 0
	return start, list
}

// TotalBytes sums every edge's tensor size — the traffic the graph offers
// the network.
func (g *Graph) TotalBytes() uint64 {
	var t uint64
	for _, e := range g.Edges {
		t += uint64(e.Bytes)
	}
	return t
}

// CrossSiteBytes sums edge bytes whose endpoints live on different sites —
// the traffic that actually crosses waveguides.
func (g *Graph) CrossSiteBytes() uint64 {
	var t uint64
	for _, e := range g.Edges {
		if g.Ops[e.From].Site != g.Ops[e.To].Site {
			t += uint64(e.Bytes)
		}
	}
	return t
}
