package harness

// Cross-network determinism pins for the kernel overhauls: the event queue's
// layout and closure-free scheduling must not change dispatch order, so
// every network must produce byte-identical CSVs run over run, and the
// metrics time series must match its pre-overhaul golden.

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"macrochip/internal/metrics"
	"macrochip/internal/networks"
	"macrochip/internal/traffic"
)

// metricsCSVFor runs one instrumented load point and renders the metrics
// time series.
func metricsCSVFor(t *testing.T, kind networks.Kind) (LoadPoint, string) {
	t.Helper()
	cfg := quickCfg()
	cfg.Network = kind
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.05
	cfg.Obs.Reg = metrics.NewRegistry()
	pt := RunLoadPoint(cfg)
	var b strings.Builder
	if err := WriteMetricsCSV(&b, cfg.Obs.Reg); err != nil {
		t.Fatal(err)
	}
	return pt, b.String()
}

// TestCrossNetworkDeterminism runs the same instrumented load point twice
// per network — fresh engine, channels, and RNG streams each time — and
// requires identical results and identical metrics CSV bytes. Any
// divergence means event dispatch order leaked out of the (time, seq)
// contract.
func TestCrossNetworkDeterminism(t *testing.T) {
	for _, kind := range networks.Six() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			pt1, csv1 := metricsCSVFor(t, kind)
			pt2, csv2 := metricsCSVFor(t, kind)
			if pt1 != pt2 {
				t.Fatalf("load point not reproducible:\nrun1 %+v\nrun2 %+v", pt1, pt2)
			}
			if csv1 != csv2 {
				t.Fatal("metrics CSV differs between identical runs")
			}
		})
	}
}

// TestGoldenMetricsCSV pins the exact bytes of the metrics time series for
// one instrumented point-to-point run, extending the golden coverage from
// the result CSVs to the sampled probe output. The full CSV is ~48 MB
// (8064 per-channel series × every probe tick), so the golden holds its
// SHA-256 instead of the bytes — the same byte-exactness, one line on disk.
func TestGoldenMetricsCSV(t *testing.T) {
	_, csv := metricsCSVFor(t, networks.PointToPoint)
	sum := sha256.Sum256([]byte(csv))
	checkGolden(t, "metrics.csv.sha256.golden", []byte(hex.EncodeToString(sum[:])+"\n"))
}
