package harness

import (
	"encoding/csv"
	"strings"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

func TestWriteFigure6CSV(t *testing.T) {
	cfg := quickCfg()
	panel := Figure6Panel{Pattern: "butterfly"}
	s := SweepSeries{Network: networks.PointToPoint}
	for _, load := range []float64{0.005, 0.01} {
		c := cfg
		c.Network = networks.PointToPoint
		c.Pattern = traffic.Butterfly{Grid: cfg.Params.Grid}
		c.Load = load
		s.Points = append(s.Points, RunLoadPoint(c))
	}
	panel.Series = append(panel.Series, s)

	var b strings.Builder
	if err := WriteFigure6CSV(&b, panel); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 points
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "pattern" || len(recs[0]) != 10 || recs[0][9] != "inflight" {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "butterfly" || recs[1][1] != "point-to-point" {
		t.Fatalf("row = %v", recs[1])
	}
}

func TestWriteStudyCSV(t *testing.T) {
	p := core.DefaultParams()
	rows := RunStudyWith(Runner{}, workload.Synthetics(p.Grid, 0.02)[:1], networks.Six(), p, 1)
	var b strings.Builder
	if err := WriteStudyCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+6 {
		t.Fatalf("rows = %d, want header + 6 networks", len(recs))
	}
	if recs[0][3] != "speedup_vs_cs" {
		t.Fatalf("header = %v", recs[0])
	}
}

func TestWriteScalingCSV(t *testing.T) {
	rows := ScalingStudyWith(Runner{}, []int{4, 8})
	var b strings.Builder
	if err := WriteScalingCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+2*6 {
		t.Fatalf("rows = %d", len(recs))
	}
	_ = sim.Time(0)
}
