package opgraph

import (
	"fmt"

	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Built-in graph presets: four inference-shaped workloads parameterized by
// (grid, batch, seq, seed). Construction is pure — the only randomness is
// MoE expert routing, drawn from a stream derived via sim.DeriveSeed — so a
// preset graph is a function of its arguments alone, and a replay of it is
// reproducible point-for-point.
//
// The tensor model is deliberately simple and documented (DESIGN.md §14):
// a hidden dimension of 1024 fp16 elements, activations sharded evenly
// across sites, and collectives modeled as reduce-scatter + all-gather
// (two full-bipartite exchange phases of 1/sites-size chunks). Compute
// windows are picosecond-scale analytic formulas of (batch, seq) — crude as
// FLOP models, but they create exactly the dependency structure that makes
// operator-graph traffic bursty: sites go quiet while computing, then every
// site transmits to every other site at once.

const (
	// hiddenDim × bytesPerElem is the per-token activation footprint (fp16).
	hiddenDim    = 1024
	bytesPerElem = 2

	// Compute-window formula constants, in picoseconds.
	pointwisePS        = 50
	collectivePS       = 100
	attnBasePS         = 200
	ffnBasePS          = 300
	ffnPerTokenPS      = 20
	expertPerTokPS     = 50
	moeExpertsPerToken = 2
)

// PresetNames lists the built-in graphs in display order.
func PresetNames() []string {
	return []string{"decode-attention", "prefill", "moe-64-expert", "tensor-parallel-ffn"}
}

// Preset builds the named graph for the given grid and scale point. batch
// and seq must be positive. The seed feeds construction-time randomness
// (MoE expert routing) through sim.DeriveSeed; presets without routing draw
// nothing from it.
func Preset(name string, grid geometry.Grid, batch, seq int, seed int64) (*Graph, error) {
	if batch < 1 || seq < 1 {
		return nil, fmt.Errorf("opgraph: preset %q needs batch ≥ 1 and seq ≥ 1 (got %d, %d)", name, batch, seq)
	}
	var g *Graph
	switch name {
	case "decode-attention":
		g = decodeAttention(grid, batch, seq)
	case "prefill":
		g = prefill(grid, batch, seq)
	case "moe-64-expert":
		g = moe(grid, batch, seed)
	case "tensor-parallel-ffn":
		g = tensorParallelFFN(grid, batch, seq)
	default:
		return nil, fmt.Errorf("opgraph: unknown preset %q (have %v)", name, PresetNames())
	}
	if err := g.Validate(grid); err != nil {
		panic(fmt.Sprintf("opgraph: preset %q built an invalid graph: %v", name, err))
	}
	return g, nil
}

// builder accumulates ops and edges with small helpers shared by the
// presets. A "stage" is one op per site, returned as site-indexed op ids.
// Each preset counts its ops and edges up front, so both slices are
// allocated once at their final size (TestPresetsSizedExactly).
type builder struct {
	g     *Graph
	grid  geometry.Grid
	sites int
}

func newBuilder(name string, grid geometry.Grid, ops, edges int) *builder {
	g := &Graph{Name: name, Ops: make([]Op, 0, ops), Edges: make([]Edge, 0, edges)}
	return &builder{g: g, grid: grid, sites: grid.Sites()}
}

// stage adds one op per site with the given kind and compute window.
func (b *builder) stage(k Kind, compute sim.Duration) []int {
	ids := make([]int, b.sites)
	for s := 0; s < b.sites; s++ {
		ids[s] = b.add(k, geometry.SiteID(s), compute)
	}
	return ids
}

func (b *builder) add(k Kind, site geometry.SiteID, compute sim.Duration) int {
	b.g.Ops = append(b.g.Ops, Op{Kind: k, Site: site, Compute: compute})
	return len(b.g.Ops) - 1
}

func (b *builder) edge(from, to, bytes int) {
	b.g.Edges = append(b.g.Edges, Edge{From: from, To: to, Bytes: bytes})
}

// chain links from[i] → to[i] as a pure ordering constraint (same-site
// stages hand off through local memory, not the network).
func (b *builder) chain(from, to []int) {
	for i := range from {
		b.edge(from[i], to[i], 0)
	}
}

// exchange links every from[i] → to[j]: chunkBytes across sites, a zero-
// byte ordering edge on the diagonal. This is one phase of a collective:
// reduce-scatter or all-gather chunks of 1/len(from) of the payload.
func (b *builder) exchange(from, to []int, chunkBytes int) {
	for i := range from {
		for j := range to {
			if i == j {
				b.edge(from[i], to[j], 0)
			} else {
				b.edge(from[i], to[j], chunkBytes)
			}
		}
	}
}

// allReduce inserts an AllReduce stage between prev and a fresh next stage
// of the given kind: reduce-scatter chunks into the collective ops, then
// all-gather chunks out into the next stage.
func (b *builder) allReduce(prev []int, payloadBytes int, nextKind Kind, nextCompute sim.Duration) []int {
	chunk := payloadBytes / b.sites
	ar := b.stage(AllReduce, collectivePS)
	b.exchange(prev, ar, chunk)
	next := b.stage(nextKind, nextCompute)
	b.exchange(ar, next, chunk)
	return next
}

// decodeAttention is one decode step of a 2-layer tensor-parallel
// transformer: per-site attention over the accumulated KV cache (compute
// grows with seq), an all-reduce, the FFN shard, and a second all-reduce
// feeding the next layer. One token per sequence moves; the traffic is the
// activation vector exchanged all-to-all twice per layer.
func decodeAttention(grid geometry.Grid, batch, seq int) *Graph {
	return twoLayer("decode-attention", grid, batch*hiddenDim*bytesPerElem,
		sim.Duration(attnBasePS+2*batch*seq), sim.Duration(ffnBasePS+ffnPerTokenPS*batch))
}

// prefill is the same 2-layer structure processing the whole prompt at
// once: attention compute is quadratic in seq, and the exchanged
// activations carry batch×seq tokens — the bandwidth-bound phase.
func prefill(grid geometry.Grid, batch, seq int) *Graph {
	return twoLayer("prefill", grid, batch*seq*hiddenDim*bytesPerElem,
		sim.Duration(attnBasePS+batch*seq*seq/8), sim.Duration(ffnBasePS+ffnPerTokenPS*batch*seq))
}

// twoLayer builds the decode and prefill graphs: an input stage, then per
// layer an attention stage and two all-reduces of act bytes, the first
// feeding the FFN stage and the second the next layer's input.
func twoLayer(name string, grid geometry.Grid, act int, attnPS, ffnPS sim.Duration) *Graph {
	const layers = 2
	n := grid.Sites()
	// Five stages a layer (attention, and two all-reduces of two stages
	// each) after the input; a chain and four full exchanges a layer.
	b := newBuilder(name, grid, n*(1+5*layers), layers*(n+4*n*n))
	prev := b.stage(Pointwise, pointwisePS)
	for layer := 0; layer < layers; layer++ {
		attn := b.stage(Attention, attnPS)
		b.chain(prev, attn)
		ffn := b.allReduce(attn, act, FFN, ffnPS)
		prev = b.allReduce(ffn, act, Pointwise, pointwisePS)
	}
	return b.g
}

// moe is one mixture-of-experts layer with one expert per site (64 experts
// on the paper's 8×8 macrochip): router, token dispatch to 2 seeded experts
// per token, expert FFNs sized by their routed load, combine back to the
// tokens' home sites, and a closing all-reduce. Dispatch/combine are the
// irregular scatter/gather phases; routing is the only seeded choice in any
// preset.
func moe(grid geometry.Grid, batch int, seed int64) *Graph {
	n := grid.Sites()
	rng := sim.NewRNG(sim.DeriveSeed(seed, sim.StringLabel("opgraph-moe-routing")))

	// routed[src][expert] counts tokens site src sends to each expert;
	// routes counts the (src, expert) pairs with any, and idle the experts
	// no token reaches.
	routed := make([][]int, n)
	expertLoad := make([]int, n)
	routes := 0
	for src := 0; src < n; src++ {
		routed[src] = make([]int, n)
		for t := 0; t < batch; t++ {
			for k := 0; k < moeExpertsPerToken; k++ {
				e := rng.Intn(n)
				if routed[src][e] == 0 {
					routes++
				}
				routed[src][e]++
				expertLoad[e]++
			}
		}
	}
	idle := 0
	for _, load := range expertLoad {
		if load == 0 {
			idle++
		}
	}

	// Six ops a site: router, dispatch, expert, combine, and the closing
	// all-reduce's two stages. Edges: the router chain, a dispatch and a
	// combine edge per route, an ordering edge per idle expert, and the
	// all-reduce's two full exchanges.
	b := newBuilder("moe-64-expert", grid, 6*n, n+2*routes+idle+2*n*n)
	router := b.stage(Pointwise, pointwisePS)
	dispatch := b.stage(MoEDispatch, pointwisePS)
	b.chain(router, dispatch)

	experts := make([]int, n)
	for e := 0; e < n; e++ {
		experts[e] = b.add(Expert, geometry.SiteID(e), sim.Duration(ffnBasePS+expertPerTokPS*expertLoad[e]))
	}
	tokBytes := hiddenDim * bytesPerElem
	for src := 0; src < n; src++ {
		for e := 0; e < n; e++ {
			if cnt := routed[src][e]; cnt > 0 {
				b.edge(dispatch[src], experts[e], cnt*tokBytes)
			}
		}
	}
	combine := b.stage(MoECombine, pointwisePS)
	for e := 0; e < n; e++ {
		for src := 0; src < n; src++ {
			if cnt := routed[src][e]; cnt > 0 {
				b.edge(experts[e], combine[src], cnt*tokBytes)
			}
		}
		// An unrouted expert still orders before the combine stage.
		if expertLoad[e] == 0 {
			b.edge(experts[e], combine[e], 0)
		}
	}
	b.allReduce(combine, batch*tokBytes, Pointwise, pointwisePS)
	return b.g
}

// tensorParallelFFN shards one FFN across each grid row: a column-parallel
// matmul per site, an all-gather across the row, the row-parallel matmul,
// and a row all-reduce. All traffic stays within rows — the pattern that
// favors row/column-routed networks.
func tensorParallelFFN(grid geometry.Grid, batch, seq int) *Graph {
	// Six stages; a chain and four row exchanges of grid.N peers a site.
	n := grid.Sites()
	b := newBuilder("tensor-parallel-ffn", grid, 6*n, n+4*n*grid.N)
	tokens := batch * seq
	shard := tokens * hiddenDim * bytesPerElem / grid.N
	chunk := shard / grid.N
	ffnPS := sim.Duration(ffnBasePS + ffnPerTokenPS*tokens/grid.N)

	in := b.stage(Pointwise, pointwisePS)
	col := b.stage(FFN, ffnPS)
	b.chain(in, col)
	ag := b.stage(AllGather, collectivePS)
	rowExchange(b, col, ag, chunk)
	row := b.stage(FFN, ffnPS)
	rowExchange(b, ag, row, chunk)
	ar := b.stage(AllReduce, collectivePS)
	rowExchange(b, row, ar, chunk)
	out := b.stage(Pointwise, pointwisePS)
	rowExchange(b, ar, out, chunk)
	return b.g
}

// rowExchange is exchange restricted to row peers: from[i] → to[j] for
// every j in i's row (zero-byte on the diagonal).
func rowExchange(b *builder, from, to []int, chunkBytes int) {
	g := b.grid
	for s := 0; s < b.sites; s++ {
		r := g.Row(geometry.SiteID(s))
		for c := 0; c < g.N; c++ {
			peer := int(g.Site(r, c))
			if peer == s {
				b.edge(from[s], to[peer], 0)
			} else {
				b.edge(from[s], to[peer], chunkBytes)
			}
		}
	}
}
