package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// Golden-file tests pin the exact bytes of every CSV writer. The simulator
// is deterministic, so any diff here is either an intentional format change
// (regenerate with `go test ./internal/harness -run Golden -update`) or a
// silent behavioral regression.

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenFigure6CSV(t *testing.T) {
	cfg := quickCfg()
	panel := Figure6Panel{Pattern: "uniform"}
	s := SweepSeries{Network: networks.PointToPoint}
	for _, load := range []float64{0.01, 0.02} {
		c := cfg
		c.Network = networks.PointToPoint
		c.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
		c.Load = load
		s.Points = append(s.Points, RunLoadPoint(c))
	}
	panel.Series = append(panel.Series, s)
	var b strings.Builder
	if err := WriteFigure6CSV(&b, panel); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure6.csv.golden", []byte(b.String()))
}

func TestGoldenStudyCSV(t *testing.T) {
	p := core.DefaultParams()
	rows := RunStudyWith(Runner{}, workload.Synthetics(p.Grid, 0.02)[:1], networks.Six(), p, 1)
	var b strings.Builder
	if err := WriteStudyCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "study.csv.golden", []byte(b.String()))
}

func TestGoldenScalingCSV(t *testing.T) {
	rows := ScalingStudyWith(Runner{}, []int{4, 8})
	var b strings.Builder
	if err := WriteScalingCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scaling.csv.golden", []byte(b.String()))
}

func TestGoldenResilienceCSV(t *testing.T) {
	cfg := quickResilienceCfg()
	cfg.Networks = []networks.Kind{networks.PointToPoint, networks.TokenRing}
	cfg.Classes = []fault.Class{fault.DarkLaser, fault.StuckSwitch}
	cfg.Rates = []float64{0, 80}
	cfg.Warmup = 100 * sim.Nanosecond
	cfg.Measure = 400 * sim.Nanosecond
	points := ResilienceStudyWith(Runner{}, cfg)
	var b strings.Builder
	if err := WriteResilienceCSV(&b, points); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resilience.csv.golden", []byte(b.String()))
}
