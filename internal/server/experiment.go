package server

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// ExperimentConfig is the request body of POST /v1/experiments: one
// experiment of one of the five study kinds. Every field that feeds a
// simulation flows into the same harness entry points cmd/figures,
// cmd/report, cmd/resilience and cmd/inference call with the same
// defaults, and every point's seed derives purely from (seed, point
// identity), so a daemon response is byte-identical to the CLI output for
// the same config — and content-addressable in the shared result cache.
type ExperimentConfig struct {
	// Kind selects the study: "figure6", "study", "scaling", "resilience",
	// "inference".
	Kind string `json:"kind"`
	// Seed is the base random seed; 0 means the CLI default of 1.
	Seed int64 `json:"seed,omitempty"`
	// Quick shrinks the simulation windows exactly like the CLIs' -quick.
	Quick bool `json:"quick,omitempty"`

	// Pattern names the figure-6 traffic pattern: uniform, transpose,
	// neighbor, butterfly (required for kind "figure6").
	Pattern string `json:"pattern,omitempty"`
	// Networks restricts figure6/resilience/inference to a subset of
	// network kinds, each named at most once (default: the study's full
	// set).
	Networks []string `json:"networks,omitempty"`
	// Loads restricts figure6 to at most 64 specific offered loads, as
	// fractions of site bandwidth in (0, 1] (default: the paper's
	// per-pattern grid).
	Loads []float64 `json:"loads,omitempty"`
	// WarmupNS/MeasureNS override the simulation windows (figure6 and
	// resilience). Zero keeps the study default.
	WarmupNS  float64 `json:"warmup_ns,omitempty"`
	MeasureNS float64 `json:"measure_ns,omitempty"`

	// Scale is the workload instruction-quota scale for kind "study"
	// (default 1.0).
	Scale float64 `json:"scale,omitempty"`

	// GridSizes lists the N of each N×N macrochip for kind "scaling", at
	// most 16 of them (default 4, 8, 16).
	GridSizes []int `json:"grid_sizes,omitempty"`

	// Classes, Rates, Load and MTTRMicros configure kind "resilience",
	// mirroring cmd/resilience's -classes/-rates/-load/-mttr flags. Each
	// fault class is named at most once; at most 16 rates, each at most
	// 1,000 per site per ms.
	Classes    []string  `json:"classes,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	Load       float64   `json:"load,omitempty"`
	MTTRMicros float64   `json:"mttr_us,omitempty"`

	// Graphs, Batches and SeqLens configure kind "inference", mirroring
	// cmd/inference's -graphs/-batches/-seqs flags (presets only — the
	// -graph-json escape hatch stays CLI-local). Each preset is named at
	// most once; at most 8 batches and 8 seq_lens.
	Graphs  []string `json:"graphs,omitempty"`
	Batches []int    `json:"batches,omitempty"`
	SeqLens []int    `json:"seq_lens,omitempty"`
	// MTU is the inference transfer packet size, mirroring cmd/inference
	// -mtu. Zero means the default (opgraph.DefaultMTU); negative is a 400.
	MTU int `json:"mtu,omitempty"`
}

// maxWindowNS bounds warmup+measure overrides so one request cannot pin a
// worker for an unbounded simulated horizon; the paper's own figure-6
// window is 8 µs, two orders of magnitude under the cap.
const maxWindowNS = 1e6

// ConfigError is a request-validation failure; Field names the offending
// JSON field when known. Handlers render it as a structured 400 body.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return e.Field + ": " + e.Msg
}

func badField(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// decodeConfig is the submit path's parse of a request body: a strict JSON
// decode (an unknown field, or anything but whitespace after the one
// value, is an error), then normalize.
func decodeConfig(body io.Reader) (ExperimentConfig, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var cfg ExperimentConfig
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("invalid experiment config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return cfg, fmt.Errorf("invalid experiment config: data after the JSON object")
	}
	return cfg.normalize()
}

// normalize validates cfg and fills CLI-equivalent defaults, returning the
// canonical config that is both executed and displayed in job status. No
// list may repeat a name or be set on a kind that does not read it, so
// every list is bounded by its allowed set or its count cap.
func (cfg ExperimentConfig) normalize() (ExperimentConfig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.WarmupNS < 0 || cfg.MeasureNS < 0 {
		return cfg, badField("warmup_ns", "simulation windows must be non-negative")
	}
	if cfg.WarmupNS+cfg.MeasureNS > maxWindowNS {
		return cfg, badField("measure_ns", "warmup+measure window exceeds %g ns", float64(maxWindowNS))
	}
	switch cfg.Kind {
	case "figure6":
		if _, err := traffic.ByName(cfg.Pattern, core.DefaultParams().Grid); err != nil {
			return cfg, badField("pattern", "unknown pattern %q (want uniform, transpose, neighbor or butterfly)", cfg.Pattern)
		}
		if _, err := parseKinds(cfg.Networks, networks.Five()); err != nil {
			return cfg, err
		}
		if len(cfg.Loads) > 64 {
			return cfg, badField("loads", "at most 64 loads per request")
		}
		for _, l := range cfg.Loads {
			if l <= 0 || l > 1 {
				return cfg, badField("loads", "load %g outside (0, 1]", l)
			}
		}
	case "study":
		if cfg.Scale == 0 {
			cfg.Scale = 1.0
		}
		if cfg.Scale < 0 || cfg.Scale > 4 {
			return cfg, badField("scale", "scale %g outside (0, 4]", cfg.Scale)
		}
	case "scaling":
		if cfg.GridSizes == nil {
			cfg.GridSizes = []int{4, 8, 16}
		}
		if len(cfg.GridSizes) > 16 {
			return cfg, badField("grid_sizes", "at most 16 grid sizes per request")
		}
		for _, n := range cfg.GridSizes {
			if n < 2 || n > 64 {
				return cfg, badField("grid_sizes", "grid size %d outside [2, 64]", n)
			}
		}
	case "resilience":
		if _, err := parseKinds(cfg.Networks, networks.Six()); err != nil {
			return cfg, err
		}
		for i, s := range cfg.Classes {
			if _, err := fault.ParseClass(s); err != nil {
				return cfg, badField("classes", "%v", err)
			}
			if slices.Contains(cfg.Classes[:i], s) {
				return cfg, badField("classes", "class %q named twice", s)
			}
		}
		if len(cfg.Rates) > 16 {
			return cfg, badField("rates", "at most 16 rates per request")
		}
		for _, r := range cfg.Rates {
			if r < 0 || r > harness.MaxFaultRate {
				return cfg, badField("rates", "fault rate %g outside [0, %d] per site per ms", r, harness.MaxFaultRate)
			}
		}
		if cfg.Load < 0 || cfg.Load > 1 {
			return cfg, badField("load", "load %g outside [0, 1]", cfg.Load)
		}
		if cfg.MTTRMicros < 0 {
			return cfg, badField("mttr_us", "negative MTTR")
		}
	case "inference":
		if _, err := parseKinds(cfg.Networks, networks.Six()); err != nil {
			return cfg, err
		}
		for i, g := range cfg.Graphs {
			if !slices.Contains(opgraph.PresetNames(), g) {
				return cfg, badField("graphs", "unknown graph preset %q (have %s)", g, strings.Join(opgraph.PresetNames(), ", "))
			}
			if slices.Contains(cfg.Graphs[:i], g) {
				return cfg, badField("graphs", "graph %q named twice", g)
			}
		}
		if len(cfg.Batches) > 8 || len(cfg.SeqLens) > 8 {
			return cfg, badField("batches", "at most 8 batches and 8 seq_lens per request")
		}
		for _, b := range cfg.Batches {
			if b < 1 || b > 64 {
				return cfg, badField("batches", "batch %d outside [1, 64]", b)
			}
		}
		for _, s := range cfg.SeqLens {
			if s < 1 || s > 512 {
				return cfg, badField("seq_lens", "seq %d outside [1, 512]", s)
			}
		}
		if cfg.MTU < 0 || cfg.MTU > 1<<20 {
			return cfg, badField("mtu", "mtu %d outside [0, 1048576] (0 = the %d-byte default)", cfg.MTU, opgraph.DefaultMTU)
		}
	case "":
		return cfg, badField("kind", "kind is required (figure6, study, scaling, resilience or inference)")
	default:
		return cfg, badField("kind", "unknown kind %q (want figure6, study, scaling, resilience or inference)", cfg.Kind)
	}
	// A list is set when the body holds it, even empty ([] decodes to a
	// non-nil slice, null to nil). An empty list is refused: run would
	// read it unlike an absent one, while the displayed config (omitempty)
	// shows it absent.
	for _, l := range []struct {
		field      string
		set, empty bool
		kinds      []string
	}{
		{"networks", cfg.Networks != nil, len(cfg.Networks) == 0, []string{"figure6", "resilience", "inference"}},
		{"loads", cfg.Loads != nil, len(cfg.Loads) == 0, []string{"figure6"}},
		{"grid_sizes", cfg.GridSizes != nil, len(cfg.GridSizes) == 0, []string{"scaling"}},
		{"classes", cfg.Classes != nil, len(cfg.Classes) == 0, []string{"resilience"}},
		{"rates", cfg.Rates != nil, len(cfg.Rates) == 0, []string{"resilience"}},
		{"graphs", cfg.Graphs != nil, len(cfg.Graphs) == 0, []string{"inference"}},
		{"batches", cfg.Batches != nil, len(cfg.Batches) == 0, []string{"inference"}},
		{"seq_lens", cfg.SeqLens != nil, len(cfg.SeqLens) == 0, []string{"inference"}},
	} {
		if l.set && l.empty {
			return cfg, badField(l.field, "empty list; omit %s for the default", l.field)
		}
		if l.set && !slices.Contains(l.kinds, cfg.Kind) {
			return cfg, badField(l.field, "kind %q does not read %s", cfg.Kind, l.field)
		}
	}
	return cfg, nil
}

// parseKinds maps network names onto the allowed set for the study; a
// name may appear once.
func parseKinds(names []string, allowed []networks.Kind) ([]networks.Kind, error) {
	if len(names) == 0 {
		return nil, nil
	}
	kinds := make([]networks.Kind, 0, len(names))
	for _, s := range names {
		k := networks.Kind(s)
		if !slices.Contains(allowed, k) {
			return nil, badField("networks", "unknown network %q (have %v)", s, allowed)
		}
		if slices.Contains(kinds, k) {
			return nil, badField("networks", "network %q named twice", s)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// result is a done job's answer: its typed rows, kept once, and the
// harness writers the CLIs use, which render them on each GET.
type result struct {
	rows any
	csv  func(io.Writer) error
	text func() string
}

func newResult[T any](rows T, csv func(io.Writer, T) error, text func(T) string) *result {
	return &result{rows, func(w io.Writer) error { return csv(w, rows) }, func() string { return text(rows) }}
}

// run executes one normalized config on the shared Runner. It is called
// from queue workers only; the Runner's cache single-flights identical
// concurrent experiments down to one simulation per point.
func (cfg ExperimentConfig) run(r harness.Runner) (*result, error) {
	// normalize has validated every name, so parsing them cannot fail.
	kinds, _ := parseKinds(cfg.Networks, networks.Six())
	switch cfg.Kind {
	case "figure6":
		panel, err := harness.Figure6PanelWith(r, cfg.loadPointConfig(), cfg.Pattern, kinds, cfg.Loads)
		return newResult(panel, harness.WriteFigure6CSV, harness.RenderFigure6), err
	case "study":
		rows := harness.FullStudyWith(r, core.DefaultParams(), harness.StudyScale(cfg.Scale, cfg.Quick), cfg.Seed)
		return newResult(rows, harness.WriteStudyCSV, renderStudy), nil
	case "scaling":
		rows := harness.ScalingStudyWith(r, cfg.GridSizes)
		return newResult(rows, harness.WriteScalingCSV, harness.RenderScaling), nil
	case "resilience":
		points := harness.ResilienceStudyWith(r, cfg.resilienceConfig(kinds))
		return newResult(points, harness.WriteResilienceCSV, harness.RenderResilience), nil
	case "inference":
		points, err := harness.InferenceStudyWith(r, cfg.inferenceConfig(kinds))
		return newResult(points, harness.WriteInferenceCSV, harness.RenderInference), err
	}
	return nil, badField("kind", "unknown kind %q", cfg.Kind)
}

// renderStudy renders figures 7–10 from one study's rows.
func renderStudy(rows []harness.StudyRow) string {
	return strings.Join([]string{
		harness.RenderFigure7(rows), harness.RenderFigure8(rows),
		harness.RenderFigure9(rows), harness.RenderFigure10(rows),
	}, "\n")
}

func (cfg ExperimentConfig) loadPointConfig() harness.LoadPointConfig {
	base := harness.DefaultLoadPointConfig()
	if cfg.Quick {
		base = harness.QuickLoadPointConfig()
	}
	base.Seed = cfg.Seed
	if cfg.WarmupNS > 0 {
		base.Warmup = sim.FromNanoseconds(cfg.WarmupNS)
	}
	if cfg.MeasureNS > 0 {
		base.Measure = sim.FromNanoseconds(cfg.MeasureNS)
	}
	return base
}

func (cfg ExperimentConfig) resilienceConfig(kinds []networks.Kind) harness.ResilienceConfig {
	rcfg := harness.DefaultResilienceConfig()
	if cfg.Quick {
		rcfg = harness.QuickResilienceConfig()
	}
	rcfg.Seed = cfg.Seed
	if cfg.WarmupNS > 0 {
		rcfg.Warmup = sim.FromNanoseconds(cfg.WarmupNS)
	}
	if cfg.MeasureNS > 0 {
		rcfg.Measure = sim.FromNanoseconds(cfg.MeasureNS)
	}
	if cfg.Load > 0 {
		rcfg.Load = cfg.Load
	}
	if cfg.MTTRMicros > 0 {
		rcfg.MTTR = sim.FromNanoseconds(cfg.MTTRMicros * 1e3)
	}
	rcfg.Networks = kinds
	for _, s := range cfg.Classes {
		c, _ := fault.ParseClass(s) // validated by normalize
		rcfg.Classes = append(rcfg.Classes, c)
	}
	if cfg.Rates != nil {
		rcfg.Rates = cfg.Rates
	}
	return rcfg
}

func (cfg ExperimentConfig) inferenceConfig(kinds []networks.Kind) harness.InferenceConfig {
	icfg := harness.DefaultInferenceConfig()
	if cfg.Quick {
		// The quick sweep is the golden-pinned config shared with
		// `cmd/inference -quick`, so quick daemon responses are
		// byte-identical to the committed inference.csv.golden.
		icfg = harness.QuickInferenceConfig()
	}
	icfg.Seed = cfg.Seed
	icfg.Networks = kinds
	if cfg.Graphs != nil {
		icfg.Graphs = cfg.Graphs
	}
	if cfg.Batches != nil {
		icfg.Batches = cfg.Batches
	}
	if cfg.SeqLens != nil {
		icfg.SeqLens = cfg.SeqLens
	}
	icfg.PacketBytes = cfg.MTU
	return icfg
}
