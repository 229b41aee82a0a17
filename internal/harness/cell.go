package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/expcache"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// ModelSalt versions the semantics of every simulation behind the result
// cache. Bump it whenever a change alters what any cached study point would
// compute — kernel dispatch order, network timing models, coherence
// protocol, statistics definitions — and every previously cached entry
// becomes unreachable. Formatting-only and harness-plumbing changes do not
// need a bump: the golden-CSV tests pin the actual output bytes either way.
const ModelSalt = "macrochip-sim-v5"

// Cells: the unit of caching is exactly the unit of distributed work — one
// pure (config, derived seed) experiment point — and a cell is described
// once, by its wire spec. A cell spec is the JSON form of everything the
// point's simulation needs, with the two non-serializable parts of the
// native configs resolved by name instead of by value: traffic patterns
// travel as their Name() (round-tripped through traffic.ByName, pinned by
// TestCellSpecsRoundTrip) and the observability hook does not travel at
// all (only RunLoadPoint reads LoadPointConfig.Obs; a study's cells run
// unobserved). Each spec's run method is the one definition of what its
// cell computes, so a study's in-process run, its cache miss, its fleet
// fallback and a worker's decoded cell all call the same method on the
// same value.
//
// The spec's bytes are the cell's whole identity: the cache key is a hash
// of them (cellKey) and, on a miss, the fleet message carries them, so a
// field cannot reach a worker without also reaching the key, and a worker
// publishes under exactly the key the coordinator looks up (pinned by
// TestWorkerPublishesCoordinatorKey).
//
// Byte-identity across the wire rests on the same property the cache rests
// on: every result struct round-trips through encoding/json with
// shortest-round-trip float encoding, so unmarshal(marshal(x)) == x
// value-for-value, and the coordinator's re-marshal of a worker-computed
// result is byte-for-byte the entry a local run would have written.

// Cell kinds carried in distrib cell messages.
const (
	CellLoadPoint  = "loadpoint"
	CellBenchCell  = "benchcell"
	CellResilience = "resilience"
	CellInference  = "inference"
)

// cellSpec is a cell's wire spec: its JSON is the cell's identity and run
// computes the cell. run panics on a spec it cannot run — one that names
// an unknown pattern, fault class, graph or network — which a study, whose
// specs come from resolved values, never builds; RunCell turns the panic
// into the cell's error.
type cellSpec[T any] interface {
	run() T
}

// loadPointSpec is the wire form of one figure-6 load point.
type loadPointSpec struct {
	Params      core.Params   `json:"params"`
	Network     networks.Kind `json:"network"`
	Pattern     string        `json:"pattern"`
	Load        float64       `json:"load"`
	PacketBytes int           `json:"packet_bytes"`
	WarmupPS    int64         `json:"warmup_ps"`
	MeasurePS   int64         `json:"measure_ps"`
	Seed        int64         `json:"seed"`
}

func specForLoadPoint(cfg LoadPointConfig) loadPointSpec {
	return loadPointSpec{
		Params:      cfg.Params,
		Network:     cfg.Network,
		Pattern:     cfg.Pattern.Name(),
		Load:        cfg.Load,
		PacketBytes: cfg.PacketBytes,
		WarmupPS:    int64(cfg.Warmup),
		MeasurePS:   int64(cfg.Measure),
		Seed:        cfg.Seed,
	}
}

func (s loadPointSpec) run() LoadPoint {
	pat, err := traffic.ByName(s.Pattern, s.Params.Grid)
	if err != nil {
		panic(err)
	}
	return RunLoadPoint(LoadPointConfig{
		Params:      s.Params,
		Network:     s.Network,
		Pattern:     pat,
		Load:        s.Load,
		PacketBytes: s.PacketBytes,
		Warmup:      sim.Time(s.WarmupPS),
		Measure:     sim.Time(s.MeasurePS),
		Seed:        s.Seed,
	})
}

// benchCellSpec is the wire form of one (benchmark, network) study cell.
type benchCellSpec struct {
	Params       core.Params   `json:"params"`
	Name         string        `json:"name"`
	MissPerInstr float64       `json:"miss_per_instr"`
	Mix          cpu.Mix       `json:"mix"`
	Pattern      string        `json:"pattern"`
	InstrPerCore int           `json:"instr_per_core"`
	Network      networks.Kind `json:"network"`
	Seed         int64         `json:"seed"`
}

func specForBenchCell(b cpu.Benchmark, kind networks.Kind, p core.Params, seed int64) benchCellSpec {
	return benchCellSpec{
		Params:       p,
		Name:         b.Name,
		MissPerInstr: b.MissPerInstr,
		Mix:          b.Mix,
		Pattern:      b.Pattern.Name(),
		InstrPerCore: b.InstrPerCore,
		Network:      kind,
		Seed:         seed,
	}
}

func (s benchCellSpec) run() BenchResult {
	pat, err := traffic.ByName(s.Pattern, s.Params.Grid)
	if err != nil {
		panic(err)
	}
	b := cpu.Benchmark{
		Name:         s.Name,
		MissPerInstr: s.MissPerInstr,
		Mix:          s.Mix,
		Pattern:      pat,
		InstrPerCore: s.InstrPerCore,
	}
	return RunBenchmark(b, s.Network, s.Params, s.Seed)
}

// resilienceSpec is the wire form of one (network, class, rate) resilience
// cell.
type resilienceSpec struct {
	Params         core.Params   `json:"params"`
	Network        networks.Kind `json:"network"`
	Class          string        `json:"class"`
	Rate           float64       `json:"rate"`
	Load           float64       `json:"load"`
	PacketBytes    int           `json:"packet_bytes"`
	WarmupPS       int64         `json:"warmup_ps"`
	MeasurePS      int64         `json:"measure_ps"`
	MTTRPS         int64         `json:"mttr_ps"`
	RetryTimeoutPS int64         `json:"retry_timeout_ps"`
	RetryMax       int           `json:"retry_max"`
	Seed           int64         `json:"seed"`
}

func specForResilience(cfg ResilienceConfig, k networks.Kind, c fault.Class, rate float64) resilienceSpec {
	return resilienceSpec{
		Params:         cfg.Params,
		Network:        k,
		Class:          c.String(),
		Rate:           rate,
		Load:           cfg.Load,
		PacketBytes:    cfg.PacketBytes,
		WarmupPS:       int64(cfg.Warmup),
		MeasurePS:      int64(cfg.Measure),
		MTTRPS:         int64(cfg.MTTR),
		RetryTimeoutPS: int64(cfg.Retry.Timeout),
		RetryMax:       cfg.Retry.MaxRetries,
		Seed:           cfg.Seed,
	}
}

func (s resilienceSpec) run() ResiliencePoint {
	class, err := fault.ParseClass(s.Class)
	if err != nil {
		panic(err)
	}
	cfg := ResilienceConfig{
		Params:      s.Params,
		Load:        s.Load,
		PacketBytes: s.PacketBytes,
		Warmup:      sim.Time(s.WarmupPS),
		Measure:     sim.Time(s.MeasurePS),
		MTTR:        sim.Time(s.MTTRPS),
		Retry:       traffic.RetryPolicy{Timeout: sim.Duration(s.RetryTimeoutPS), MaxRetries: s.RetryMax},
		Seed:        s.Seed,
	}
	return RunResiliencePoint(cfg, s.Network, class, s.Rate)
}

// inferenceSpec is the wire form of one (network, graph, batch, seq)
// inference cell. Custom carries a user-supplied DAG by value so a remote
// worker needs no access to the coordinator's filesystem, and so two
// different custom DAGs sharing a name can never share a key.
type inferenceSpec struct {
	Params      core.Params    `json:"params"`
	Network     networks.Kind  `json:"network"`
	Graph       string         `json:"graph"`
	Batch       int            `json:"batch"`
	Seq         int            `json:"seq"`
	PacketBytes int            `json:"packet_bytes"`
	JitterFrac  float64        `json:"jitter_frac"`
	Seed        int64          `json:"seed"`
	Custom      *opgraph.Graph `json:"custom,omitempty"`
}

func specForInference(cfg InferenceConfig, k networks.Kind, graph string, batch, seq int) inferenceSpec {
	s := inferenceSpec{
		Params:      cfg.Params,
		Network:     k,
		Graph:       graph,
		Batch:       batch,
		Seq:         seq,
		PacketBytes: cfg.PacketBytes,
		JitterFrac:  cfg.JitterFrac,
		Seed:        cfg.Seed,
	}
	if cfg.Custom != nil && cfg.Custom.Name == graph {
		s.Custom = cfg.Custom
	}
	return s
}

// run is RunInferencePoint for the cell. A study validates its config
// before fan-out (InferenceStudyWith), so a run error there is a bug, not
// bad input.
func (s inferenceSpec) run() InferencePoint {
	cfg := InferenceConfig{
		Params:      s.Params,
		Custom:      s.Custom,
		PacketBytes: s.PacketBytes,
		JitterFrac:  s.JitterFrac,
		Seed:        s.Seed,
	}
	pt, err := RunInferencePoint(cfg, s.Network, s.Graph, s.Batch, s.Seq)
	if err != nil {
		panic(fmt.Sprintf("harness: inference point (%s, %s, %d, %d) failed after validation: %v", s.Network, s.Graph, s.Batch, s.Seq, err))
	}
	return pt
}

// decodeSpec is the worker-side strict decoder: unknown fields are rejected
// so a coordinator/worker version skew surfaces as a cell error instead of
// silently simulating a truncated config.
func decodeSpec(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("harness: decoding cell spec: %w", err)
	}
	return nil
}

// cellKey addresses one cell in the result cache: a SHA-256 over ModelSalt,
// the cell kind and the spec's JSON, NUL-separated (neither the salt nor a
// kind contains a NUL). encoding/json writes struct fields in declaration
// order, map keys sorted and floats in shortest round-trip form with the
// sign of −0 kept, so equal specs give equal bytes and any changed field
// moves the key. A spec carries either a point's derived seed or the base
// seed it derives from along with the point identity, so the key pins the
// simulation's RNG streams either way.
func cellKey(kind string, spec []byte) expcache.Key {
	h := sha256.New()
	h.Write([]byte(ModelSalt + "\x00" + kind + "\x00"))
	h.Write(spec)
	var k expcache.Key
	h.Sum(k[:0])
	return k
}

// cell is one study point on its way to a result: its kind, its spec, the
// spec's JSON marshalled once and the cache key hashed from it once.
type cell[T any, S cellSpec[T]] struct {
	kind string
	spec S
	data []byte
	key  expcache.Key
}

// newCell marshals spec for kind and derives its key. A spec holding a NaN
// or ±Inf float has no JSON form; its cell keeps nil data and runs
// in-process, uncached.
func newCell[T any, S cellSpec[T]](kind string, spec S) cell[T, S] {
	c := cell[T, S]{kind: kind, spec: spec}
	if data, err := json.Marshal(spec); err == nil {
		c.data, c.key = data, cellKey(kind, data)
	}
	return c
}

// run computes the cell behind the cache (nil: uncached) and, on a miss,
// behind the fleet d (nil: in-process). The lookup key and the worker
// message are the same spec bytes. The spec's own run computes the cell
// whenever the fleet cannot serve it — the coordinator is absent,
// draining, out of workers, the cell failed remotely, or the result did
// not decode — so a sweep never depends on remote success for
// completeness.
func (c cell[T, S]) run(cache *expcache.Cache, d *Coordinator) T {
	if c.data == nil {
		return c.spec.run()
	}
	return expcache.Do(cache, c.key, func() T {
		if d != nil {
			if value, ok := d.Exec(c.kind, c.data); ok {
				var v T
				err := json.Unmarshal(value, &v)
				if err == nil {
					return v
				}
				d.noteBadValue(c.kind, err)
			}
		}
		return c.spec.run()
	})
}

// runCells runs one study's cells on the Runner: every key is prefetched
// from the remote tier in one batch, then the cells fan out with results
// slotted by index.
func runCells[T any, S cellSpec[T]](r Runner, cells []cell[T, S]) []T {
	keys := make([]expcache.Key, 0, len(cells))
	for _, c := range cells {
		if c.data != nil {
			keys = append(keys, c.key)
		}
	}
	r.Cache.Prefetch(keys)
	return runIndexed(r, len(cells), func(i int) T {
		return cells[i].run(r.Cache, r.Dist)
	})
}

// RunCell executes one wire cell through the same cell path the in-process
// studies use — the worker side of the distributed protocol. The cell is
// keyed by the spec it decoded, so the worker publishes under the
// coordinator's key. The Runner's cache is the worker's own; the cell is
// never redistributed. The returned value is the result struct, ready for
// canonical JSON encoding. Every failure is the returned error — a spec
// that does not decode, an unknown kind, or a cell that panics, such as
// one naming an unknown pattern, class or graph — so a worker survives
// any single bad cell.
func RunCell(r Runner, kind string, data []byte) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, fmt.Errorf("cell panicked: %v", p)
		}
	}()
	switch kind {
	case CellLoadPoint:
		return runWire[LoadPoint, loadPointSpec](r, kind, data)
	case CellBenchCell:
		return runWire[BenchResult, benchCellSpec](r, kind, data)
	case CellResilience:
		return runWire[ResiliencePoint, resilienceSpec](r, kind, data)
	case CellInference:
		return runWire[InferencePoint, inferenceSpec](r, kind, data)
	}
	return nil, fmt.Errorf("harness: unknown cell kind %q", kind)
}

// runWire decodes one kind's spec and runs it as a cell behind the
// Runner's cache.
func runWire[T any, S cellSpec[T]](r Runner, kind string, data []byte) (any, error) {
	var s S
	if err := decodeSpec(data, &s); err != nil {
		return nil, err
	}
	return newCell(kind, s).run(r.Cache, nil), nil
}
