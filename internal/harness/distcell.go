package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// Wire cells: the unit of distributed work is exactly the unit of caching —
// one (config, derived seed) experiment point. A cell spec is the JSON form
// of everything the corresponding cached* entry point needs, with the two
// non-serializable parts of the native configs resolved by name instead of
// by value: traffic patterns travel as their Name() (round-tripped through
// traffic.ByName, pinned by TestCellSpecsRoundTrip) and the observability
// hook does not travel at all (instrumented points are never distributed —
// their value is the in-process probe series, not the result struct).
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
// worker needs no access to the coordinator's filesystem.
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

// RunCell executes one wire cell through the same cached entry points the
// in-process studies use — the worker side of the distributed protocol. The
// Runner is the worker's own (serial, locally cached, never redistributed);
// the returned value is the result struct, ready for canonical JSON
// encoding.
func RunCell(r Runner, kind string, spec []byte) (any, error) {
	r.Workers = 1
	r.Dist = nil
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
		return cachedLoadPoint(r, cfg), nil
	case CellBenchCell:
		var s benchCellSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		b, err := s.benchmark()
		if err != nil {
			return nil, err
		}
		return cachedBenchCell(r, b, s.Network, s.Params, s.Seed), nil
	case CellResilience:
		var s resilienceSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		cfg, class, err := s.config()
		if err != nil {
			return nil, err
		}
		return cachedResiliencePoint(r, cfg, s.Network, class, s.Rate), nil
	case CellInference:
		var s inferenceSpec
		if err := decodeSpec(spec, &s); err != nil {
			return nil, err
		}
		return cachedInferencePoint(r, s.config(), s.Network, s.Graph, s.Batch, s.Seq), nil
	default:
		return nil, fmt.Errorf("harness: unknown cell kind %q", kind)
	}
}

// distCell dispatches one typed cell to the coordinator fleet and falls
// back to local when the fleet cannot serve it — the coordinator is
// absent, draining, out of workers, the cell failed remotely, or the
// result did not decode; the sweep never depends on remote success for
// completeness. A steal grant (a phantom local slot claimed the cell from
// the queue tail) also runs local, holding the slot for the duration so
// steals stay bounded by what the local cores can absorb.
func distCell[T any](d *Coordinator, kind string, spec any, local func() T) T {
	if d == nil {
		return local()
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return local()
	}
	out := d.exec(kind, data)
	if out.release != nil {
		defer out.release()
		return local()
	}
	if out.value == nil {
		return local()
	}
	var v T
	if err := json.Unmarshal(out.value, &v); err != nil {
		d.noteBadValue(kind, err)
		return local()
	}
	return v
}
