package harness

import (
	"strings"
	"testing"

	"macrochip/internal/expcache"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// openTestCache returns a cache in a per-test directory.
func openTestCache(t *testing.T) *expcache.Cache {
	t.Helper()
	c, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCachedFigure6MatchesGolden renders the golden figure-6 panel through
// the cache layer, cold and then warm, and pins both against the same golden
// file as the uncached writer: the cache must be invisible in the output
// bytes. The warm pass must come entirely from disk (no new misses).
func TestCachedFigure6MatchesGolden(t *testing.T) {
	c := openTestCache(t)
	render := func() []byte {
		cfg := quickCfg()
		panel := Figure6Panel{Pattern: "uniform"}
		s := SweepSeries{Network: networks.PointToPoint}
		for _, load := range []float64{0.01, 0.02} {
			pc := cfg
			pc.Network = networks.PointToPoint
			pc.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
			pc.Load = load
			s.Points = append(s.Points, cachedLoadPoint(Runner{Workers: 1, Cache: c}, pc))
		}
		panel.Series = append(panel.Series, s)
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	cold := render()
	afterCold := c.Stats()
	if afterCold.Misses != 2 || afterCold.Hits != 0 {
		t.Fatalf("cold pass stats = %+v, want 2 misses", afterCold)
	}
	warm := render()
	afterWarm := c.Stats()
	if afterWarm.Misses != afterCold.Misses || afterWarm.Hits != afterCold.Hits+2 {
		t.Fatalf("warm pass stats = %+v, want 2 new hits and no new misses", afterWarm)
	}
	checkGolden(t, "figure6.csv.golden", cold)
	checkGolden(t, "figure6.csv.golden", warm)
}

// TestCachedResilienceMatchesGolden is the same pinning for the resilience
// study, driven through the public Runner.Cache path.
func TestCachedResilienceMatchesGolden(t *testing.T) {
	c := openTestCache(t)
	cfg := quickResilienceCfg()
	cfg.Networks = []networks.Kind{networks.PointToPoint, networks.TokenRing}
	cfg.Classes = []fault.Class{fault.DarkLaser, fault.StuckSwitch}
	cfg.Rates = []float64{0, 80}
	cfg.Warmup = 100 * sim.Nanosecond
	cfg.Measure = 400 * sim.Nanosecond
	render := func() []byte {
		points := ResilienceStudyWith(Runner{Cache: c}, cfg)
		var b strings.Builder
		if err := WriteResilienceCSV(&b, points); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	cold := render()
	afterCold := c.Stats()
	if afterCold.Misses == 0 {
		t.Fatal("cold pass hit an empty cache")
	}
	warm := render()
	afterWarm := c.Stats()
	if afterWarm.Misses != afterCold.Misses {
		t.Fatalf("warm pass re-simulated: misses %d → %d", afterCold.Misses, afterWarm.Misses)
	}
	if afterWarm.Hits <= afterCold.Hits {
		t.Fatal("warm pass never read the cache")
	}
	checkGolden(t, "resilience.csv.golden", cold)
	checkGolden(t, "resilience.csv.golden", warm)
}

// TestCachedFigure6FullGridDeterministic runs the whole figure-6 grid three
// ways — uncached, cold cache, warm cache — and requires byte-identical
// rendered panels. This is the end-to-end determinism guarantee behind the
// cache: JSON round-trips every result bit-exactly.
func TestCachedFigure6FullGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-6 grid in -short mode")
	}
	cfg := fastCfg()
	render := func(r Runner) string {
		var b strings.Builder
		for _, panel := range Figure6With(r, cfg) {
			b.WriteString(RenderFigure6(panel))
		}
		return b.String()
	}
	c := openTestCache(t)
	uncached := render(Runner{})
	cold := render(Runner{Cache: c})
	warm := render(Runner{Cache: c})
	if cold != uncached {
		t.Error("cold-cache figure 6 differs from uncached run")
	}
	if warm != uncached {
		t.Error("warm-cache figure 6 differs from uncached run")
	}
	if st := c.Stats(); st.Hits < st.Misses {
		t.Fatalf("warm pass should hit every point: %+v", st)
	}
}

// TestCachedScalingAndStudyDeterministic pins that the scaling study never
// consults the cache — a row is closed-form arithmetic, cheaper to compute
// than its cache key — and returns the uncached rows on a Runner that has
// one.
func TestCachedScalingAndStudyDeterministic(t *testing.T) {
	c := openTestCache(t)
	ns := []int{4, 8}
	render := func(rows []ScalingRow) string {
		var b strings.Builder
		if err := WriteScalingCSV(&b, rows); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	plain := render(ScalingStudyWith(Runner{}, ns))
	cached := render(ScalingStudyWith(Runner{Cache: c}, ns))
	if plain != cached {
		t.Fatalf("scaling CSVs differ:\n--- plain ---\n%s--- with a cache ---\n%s", plain, cached)
	}
	if st := c.Stats(); st != (expcache.Stats{}) {
		t.Fatalf("scaling study consulted the cache: %+v", st)
	}
}
