package harness

import (
	"strings"
	"testing"

	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// quickResilienceCfg shrinks the sweep windows so the full
// network × class × rate grid stays fast enough for the test suite.
func quickResilienceCfg() ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Rates = []float64{0, 80}
	cfg.Warmup = 100 * sim.Nanosecond
	cfg.Measure = 500 * sim.Nanosecond
	cfg.MTTR = 250 * sim.Nanosecond
	cfg.Retry = traffic.RetryPolicy{Timeout: 250 * sim.Nanosecond, MaxRetries: 2}
	return cfg
}

func TestResilienceStudyCoversAllNetworksAndClasses(t *testing.T) {
	cfg := quickResilienceCfg()
	points := ResilienceStudyWith(Runner{}, cfg)
	want := len(networks.Six()) * len(fault.AllClasses()) * len(cfg.Rates)
	if len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	seen := map[networks.Kind]map[fault.Class]bool{}
	anyFaults := false
	for _, pt := range points {
		if seen[pt.Network] == nil {
			seen[pt.Network] = map[fault.Class]bool{}
		}
		seen[pt.Network][pt.Class] = true
		if pt.Rate == 0 {
			if pt.Faults != 0 {
				t.Fatalf("%s/%s rate 0 injected %d faults", pt.Network, pt.Class, pt.Faults)
			}
			// Availability can dip below 1 even fault-free when a slow
			// network still holds queued packets at the cutoff, but nothing
			// may be dropped.
			if pt.Dropped != 0 {
				t.Fatalf("%s/%s fault-free run dropped %d packets", pt.Network, pt.Class, pt.Dropped)
			}
		}
		if pt.Faults > 0 {
			anyFaults = true
		}
		if pt.Availability < 0 || pt.Availability > 1 {
			t.Fatalf("availability out of range: %v", pt.Availability)
		}
	}
	if len(seen) != len(networks.Six()) {
		t.Fatalf("networks covered = %d", len(seen))
	}
	for k, classes := range seen {
		if len(classes) != len(fault.AllClasses()) {
			t.Fatalf("%s covered %d classes", k, len(classes))
		}
	}
	if !anyFaults {
		t.Fatal("no point injected any fault at rate 80/site/ms")
	}
}

func TestResilienceFaultsDegradeAvailability(t *testing.T) {
	// At a high fault rate without retry recovery, availability must dip
	// below the perfect baseline on at least one network/class cell.
	cfg := quickResilienceCfg()
	cfg.Retry = traffic.RetryPolicy{} // isolate raw loss
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Classes = []fault.Class{fault.DarkLaser}
	cfg.Rates = []float64{400}
	points := ResilienceStudyWith(Runner{}, cfg)
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	pt := points[0]
	if pt.Faults == 0 {
		t.Fatal("rate 400/site/ms injected nothing")
	}
	if pt.Availability >= 1 {
		t.Fatalf("availability = %v under heavy unrecovered faults", pt.Availability)
	}
	if pt.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestResilienceSeedPure(t *testing.T) {
	a := ResilienceSeed(1, networks.TokenRing, fault.DarkLaser, 5)
	b := ResilienceSeed(1, networks.TokenRing, fault.DarkLaser, 5)
	if a != b {
		t.Fatal("seed not pure")
	}
	distinct := map[int64]bool{a: true}
	distinct[ResilienceSeed(2, networks.TokenRing, fault.DarkLaser, 5)] = true
	distinct[ResilienceSeed(1, networks.PointToPoint, fault.DarkLaser, 5)] = true
	distinct[ResilienceSeed(1, networks.TokenRing, fault.RingDetune, 5)] = true
	distinct[ResilienceSeed(1, networks.TokenRing, fault.DarkLaser, 20)] = true
	if len(distinct) != 5 {
		t.Fatalf("seed collisions: %d distinct of 5", len(distinct))
	}
}

// TestResilienceCSVIdenticalAcrossWorkerCounts is the acceptance bar for
// the sweep's determinism: serial and 8-way-parallel runs must emit
// byte-identical CSV.
func TestResilienceCSVIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := quickResilienceCfg()
	csvFor := func(workers int) string {
		points := ResilienceStudyWith(Runner{Workers: workers}, cfg)
		var b strings.Builder
		if err := WriteResilienceCSV(&b, points); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := csvFor(1)
	parallel := csvFor(8)
	if serial != parallel {
		t.Fatalf("-j 1 and -j 8 diverge:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
	if !strings.HasPrefix(serial, "network,class,rate_site_ms,") {
		t.Fatalf("unexpected CSV header: %q", serial[:60])
	}
}
