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
// all (instrumented points are never cached or distributed — their value
// is the in-process probe series, not the result struct).
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

func (s loadPointSpec) config() (LoadPointConfig, error) {
	pat, err := traffic.ByName(s.Pattern, s.Params.Grid)
	if err != nil {
		return LoadPointConfig{}, err
	}
	return LoadPointConfig{
		Params:      s.Params,
		Network:     s.Network,
		Pattern:     pat,
		Load:        s.Load,
		PacketBytes: s.PacketBytes,
		Warmup:      sim.Time(s.WarmupPS),
		Measure:     sim.Time(s.MeasurePS),
		Seed:        s.Seed,
	}, nil
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

func (s benchCellSpec) benchmark() (cpu.Benchmark, error) {
	pat, err := traffic.ByName(s.Pattern, s.Params.Grid)
	if err != nil {
		return cpu.Benchmark{}, err
	}
	return cpu.Benchmark{
		Name:         s.Name,
		MissPerInstr: s.MissPerInstr,
		Mix:          s.Mix,
		Pattern:      pat,
		InstrPerCore: s.InstrPerCore,
	}, nil
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

func (s resilienceSpec) config() (ResilienceConfig, fault.Class, error) {
	class, err := fault.ParseClass(s.Class)
	if err != nil {
		return ResilienceConfig{}, 0, err
	}
	return ResilienceConfig{
		Params:      s.Params,
		Load:        s.Load,
		PacketBytes: s.PacketBytes,
		Warmup:      sim.Time(s.WarmupPS),
		Measure:     sim.Time(s.MeasurePS),
		MTTR:        sim.Time(s.MTTRPS),
		Retry:       traffic.RetryPolicy{Timeout: sim.Duration(s.RetryTimeoutPS), MaxRetries: s.RetryMax},
		Seed:        s.Seed,
	}, class, nil
}

// inferenceSpec is the wire form of one (network, graph, batch, seq)
// inference cell. Custom carries a user-supplied DAG by value so a remote
// worker needs no access to the coordinator's filesystem, and so two
// different custom DAGs sharing a name can never share a key.
type inferenceSpec struct {
	Params         core.Params    `json:"params"`
	Network        networks.Kind  `json:"network"`
	Graph          string         `json:"graph"`
	Batch          int            `json:"batch"`
	Seq            int            `json:"seq"`
	PacketBytes    int            `json:"packet_bytes"`
	RetryTimeoutPS int64          `json:"retry_timeout_ps"`
	RetryMax       int            `json:"retry_max"`
	JitterFrac     float64        `json:"jitter_frac"`
	FaultWrap      bool           `json:"fault_wrap"`
	Seed           int64          `json:"seed"`
	Custom         *opgraph.Graph `json:"custom,omitempty"`
}

func specForInference(cfg InferenceConfig, k networks.Kind, graph string, batch, seq int) inferenceSpec {
	s := inferenceSpec{
		Params:         cfg.Params,
		Network:        k,
		Graph:          graph,
		Batch:          batch,
		Seq:            seq,
		PacketBytes:    cfg.PacketBytes,
		RetryTimeoutPS: int64(cfg.Retry.Timeout),
		RetryMax:       cfg.Retry.MaxRetries,
		JitterFrac:     cfg.JitterFrac,
		FaultWrap:      cfg.FaultWrap,
		Seed:           cfg.Seed,
	}
	if cfg.Custom != nil && cfg.Custom.Name == graph {
		s.Custom = cfg.Custom
	}
	return s
}

func (s inferenceSpec) config() InferenceConfig {
	return InferenceConfig{
		Params:      s.Params,
		Custom:      s.Custom,
		PacketBytes: s.PacketBytes,
		Retry:       traffic.RetryPolicy{Timeout: sim.Duration(s.RetryTimeoutPS), MaxRetries: s.RetryMax},
		JitterFrac:  s.JitterFrac,
		FaultWrap:   s.FaultWrap,
		Seed:        s.Seed,
	}
}

// runInference is RunInferencePoint for a cell. The config is validated
// before fan-out (InferenceStudyWith), so a run error here is a bug, not
// bad input; a worker turns the panic into a cell error.
func runInference(cfg InferenceConfig, k networks.Kind, graph string, batch, seq int) InferencePoint {
	pt, err := RunInferencePoint(cfg, k, graph, batch, seq)
	if err != nil {
		panic(fmt.Sprintf("harness: inference point (%s, %s, %d, %d) failed after validation: %v", k, graph, batch, seq, err))
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

// cell is one study point on its way to a result: its kind, its spec
// marshalled once, the cache key hashed from it once, and how to compute
// it in-process.
type cell[T any] struct {
	kind  string
	spec  []byte
	key   expcache.Key
	local func() T
}

// newCell marshals spec for kind and derives its key. A spec holding a NaN
// or ±Inf float has no JSON form; its cell keeps a nil spec and runs
// locally, uncached.
func newCell[T any](kind string, spec any, local func() T) cell[T] {
	c := cell[T]{kind: kind, local: local}
	if data, err := json.Marshal(spec); err == nil {
		c.spec, c.key = data, cellKey(kind, data)
	}
	return c
}

// run computes the cell behind the cache (nil: uncached) and, on a miss,
// behind the fleet d (nil: in-process). The lookup key and the worker
// message are the same spec bytes.
func (c cell[T]) run(cache *expcache.Cache, d *Coordinator) T {
	if c.spec == nil {
		return c.local()
	}
	return expcache.Do(cache, c.key, func() T {
		return distCell(d, c.kind, c.spec, c.local)
	})
}

// runCells runs one study's cells on the Runner: every key is prefetched
// from the remote tier in one batch, then the cells fan out with results
// slotted by index.
func runCells[T any](r Runner, cells []cell[T]) []T {
	keys := make([]expcache.Key, 0, len(cells))
	for _, c := range cells {
		if c.spec != nil {
			keys = append(keys, c.key)
		}
	}
	r.Cache.Prefetch(keys)
	return runIndexed(r, len(cells), func(i int) T {
		return cells[i].run(r.Cache, r.Dist)
	})
}

// loadPointCell is one figure-6 load point as a cell. An instrumented
// point gets no spec, so it never consults the cache or the fleet: a
// cached or remote LoadPoint carries no probe series or trace spans, and
// serving one would silently disable observability.
func loadPointCell(cfg LoadPointConfig) cell[LoadPoint] {
	local := func() LoadPoint { return RunLoadPoint(cfg) }
	if cfg.Obs.Enabled() {
		return cell[LoadPoint]{kind: CellLoadPoint, local: local}
	}
	return newCell(CellLoadPoint, specForLoadPoint(cfg), local)
}

// cachedLoadPoint is RunLoadPoint behind the cache and the Runner's fleet,
// bypassing both for instrumented configs.
func cachedLoadPoint(r Runner, cfg LoadPointConfig) LoadPoint {
	return loadPointCell(cfg).run(r.Cache, r.Dist)
}

// RunCell executes one wire cell through the same cell path the in-process
// studies use — the worker side of the distributed protocol. The cell is
// keyed by the spec it decoded, so the worker publishes under the
// coordinator's key. The Runner's cache is the worker's own; the cell is
// never redistributed. The returned value is the result struct, ready for
// canonical JSON encoding.
func RunCell(r Runner, kind string, spec []byte) (any, error) {
	switch kind {
	case CellLoadPoint:
		var s loadPointSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		cfg, err := s.config()
		if err != nil {
			return nil, err
		}
		return newCell(kind, s, func() LoadPoint { return RunLoadPoint(cfg) }).run(r.Cache, nil), nil
	case CellBenchCell:
		var s benchCellSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		b, err := s.benchmark()
		if err != nil {
			return nil, err
		}
		return newCell(kind, s, func() BenchResult {
			return RunBenchmark(b, s.Network, s.Params, s.Seed)
		}).run(r.Cache, nil), nil
	case CellResilience:
		var s resilienceSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		cfg, class, err := s.config()
		if err != nil {
			return nil, err
		}
		return newCell(kind, s, func() ResiliencePoint {
			return RunResiliencePoint(cfg, s.Network, class, s.Rate)
		}).run(r.Cache, nil), nil
	case CellInference:
		var s inferenceSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		return newCell(kind, s, func() InferencePoint {
			return runInference(s.config(), s.Network, s.Graph, s.Batch, s.Seq)
		}).run(r.Cache, nil), nil
	default:
		return nil, fmt.Errorf("harness: unknown cell kind %q", kind)
	}
}

// distCell dispatches one marshalled cell to the coordinator fleet and
// falls back to local when the fleet cannot serve it — the coordinator is
// absent, draining, out of workers, the cell failed remotely, or the
// result did not decode; the sweep never depends on remote success for
// completeness.
func distCell[T any](d *Coordinator, kind string, spec []byte, local func() T) T {
	if d == nil {
		return local()
	}
	value, ok := d.Exec(kind, spec)
	if !ok {
		return local()
	}
	var v T
	if err := json.Unmarshal(value, &v); err != nil {
		d.noteBadValue(kind, err)
		return local()
	}
	return v
}
