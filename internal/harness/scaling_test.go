package harness

import (
	"math"
	"testing"

	"macrochip/internal/networks"
)

func TestScaledParamsAtEight(t *testing.T) {
	p := ScaledParams(8)
	if p.TxPerSite != 128 || p.SiteBandwidthGBs != 320 {
		t.Fatalf("N=8 params = Tx %d, %v GB/s — should match the paper", p.TxPerSite, p.SiteBandwidthGBs)
	}
	if p.TokenRoundTripCycles != 80 {
		t.Fatalf("N=8 token RT = %d cycles, want 80", p.TokenRoundTripCycles)
	}
	if p.PeakBandwidthGBs() != 20480 {
		t.Fatalf("N=8 peak = %v", p.PeakBandwidthGBs())
	}
}

func TestScalingStudyShape(t *testing.T) {
	rows := ScalingStudyWith(Runner{}, []int{4, 8, 16})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	r8, r16 := rows[1], rows[2]
	if r8.Sites != 64 || r16.Sites != 256 {
		t.Fatalf("site counts = %d/%d", r8.Sites, r16.Sites)
	}
	// Peak bandwidth grows ~N⁴ under the 2λ/destination provisioning rule
	// (sites × per-site channels both grow as N²).
	if r16.PeakTBs <= 10*r8.PeakTBs {
		t.Fatalf("peak did not scale: %v vs %v", r16.PeakTBs, r8.PeakTBs)
	}

	// §6.4 headline: point-to-point laser power stays at the 1× factor at
	// every scale, while the token ring's pass-by ring loss explodes.
	for _, r := range rows {
		ptp := r.Networks[networks.PointToPoint]
		if ptp.ExtraLossDB != 0 {
			t.Fatalf("N=%d point-to-point extra loss = %v dB", r.N, ptp.ExtraLossDB)
		}
		if ptp.Switches != 0 {
			t.Fatalf("N=%d point-to-point has switches", r.N)
		}
	}
	tok8 := r8.Networks[networks.TokenRing]
	tok16 := r16.Networks[networks.TokenRing]
	if tok8.ExtraLossDB != 12.8 {
		t.Fatalf("N=8 token loss = %v dB, want 12.8", tok8.ExtraLossDB)
	}
	if tok16.ExtraLossDB != 51.2 {
		t.Fatalf("N=16 token loss = %v dB, want 51.2 (4× the rings)", tok16.ExtraLossDB)
	}
	if tok16.LaserWatts < 1e6 {
		t.Fatalf("N=16 token laser = %v W — the Corona adaptation should be infeasible", tok16.LaserWatts)
	}
	// Point-to-point laser power grows only with the wavelength count:
	// 2N² λ/site × N² sites ∝ N⁴, so doubling N multiplies it by 16 — but
	// the loss factor stays 1×.
	ptpRatio := r16.Networks[networks.PointToPoint].LaserWatts / r8.Networks[networks.PointToPoint].LaserWatts
	if math.Abs(ptpRatio-16) > 0.01 {
		t.Fatalf("point-to-point laser scaling = %v×, want 16× (λ count only)", ptpRatio)
	}
}

func TestScalingCircuitLossGrows(t *testing.T) {
	rows := ScalingStudyWith(Runner{}, []int{4, 8, 16})
	prev := -1.0
	for _, r := range rows {
		l := r.Networks[networks.CircuitSwitched].ExtraLossDB
		if l <= prev {
			t.Fatalf("circuit loss not increasing with N: %v after %v", l, prev)
		}
		prev = l
	}
	// At N=8 the formula should be near the paper's 31-hop budget.
	if got := rows[1].Networks[networks.CircuitSwitched].ExtraLossDB; got != 15.5 {
		t.Fatalf("N=8 circuit loss = %v dB, want 15.5", got)
	}
}
