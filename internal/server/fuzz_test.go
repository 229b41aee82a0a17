package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
)

// FuzzExperimentConfig checks the submit handler's config decoder
// (decodeConfig: the strict JSON decode, then normalize). It never panics,
// a config it accepts normalizes to itself again, and every list in an
// accepted config is non-empty and within its documented cap, so no body
// under the request size limit describes an unbounded number of cells, and
// none describes a list its displayed config would omit. Each fault rate
// is within its cap too, so no cell holds an unbounded fault plan.
func FuzzExperimentConfig(f *testing.F) {
	for _, tc := range malformedConfigs {
		f.Add([]byte(tc.body))
	}
	for _, tc := range inferenceValidation {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		tinyFigure6, slowFigure6, tinyInference,
		`{"kind":"study","scale":0.5,"quick":true}`,
		`{"kind":"scaling","grid_sizes":[2,4]}`,
		`{"kind":"resilience","networks":["two-phase"],"classes":["dark-laser","stuck-switch"],"rates":[0,2],"load":0.3}`,
		`{"kind":"inference","graphs":["prefill"],"batches":[1,8],"seq_lens":[16],"mtu":4096}`,
		// More names than figure 6 has networks, all the same one.
		`{"kind":"figure6","pattern":"uniform","networks":["two-phase"` + strings.Repeat(`,"two-phase"`, 5) + `]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := cfg.normalize()
		if err != nil {
			t.Fatalf("accepted config fails a second normalize: %v\n%+v", err, cfg)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("normalize is not idempotent:\n%+v\n%+v", cfg, again)
		}
		netCap := len(networks.Six())
		if cfg.Kind == "figure6" {
			netCap = len(networks.Five())
		}
		for _, l := range []struct {
			field    string
			set      bool
			n, limit int
		}{
			{"networks", cfg.Networks != nil, len(cfg.Networks), netCap},
			{"loads", cfg.Loads != nil, len(cfg.Loads), 64},
			{"grid_sizes", cfg.GridSizes != nil, len(cfg.GridSizes), 16},
			{"classes", cfg.Classes != nil, len(cfg.Classes), int(fault.NumClasses)},
			{"rates", cfg.Rates != nil, len(cfg.Rates), 16},
			{"graphs", cfg.Graphs != nil, len(cfg.Graphs), len(opgraph.PresetNames())},
			{"batches", cfg.Batches != nil, len(cfg.Batches), 8},
			{"seq_lens", cfg.SeqLens != nil, len(cfg.SeqLens), 8},
		} {
			if l.set && l.n == 0 {
				t.Fatalf("accepted an empty %s list: %s", l.field, data)
			}
			if l.n > l.limit {
				t.Fatalf("accepted %d %s, over the cap of %d: %s", l.n, l.field, l.limit, data)
			}
		}
		for _, r := range cfg.Rates {
			if r > harness.MaxFaultRate {
				t.Fatalf("accepted rate %g, over the cap of %d: %s", r, harness.MaxFaultRate, data)
			}
		}
	})
}
