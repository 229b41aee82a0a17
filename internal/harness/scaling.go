package harness

import (
	"fmt"
	"strings"

	"macrochip/internal/complexity"
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks"
	"macrochip/internal/photonics"
	"macrochip/internal/power"
)

// ScalingCell is one network's complexity/power figure at one grid size.
type ScalingCell struct {
	Waveguides int
	Switches   int
	// LaserWatts is the table-5 static laser power at this scale. For the
	// token ring the pass-by ring loss grows with site count, so this is
	// the column that explodes (paper §4.4's Corona critique, quantified).
	LaserWatts float64
	// ExtraLossDB is the loss factor input behind LaserWatts.
	ExtraLossDB float64
}

// ScalingRow is the scalability study at one macrochip size.
type ScalingRow struct {
	N        int
	Sites    int
	PeakTBs  float64
	Networks map[networks.Kind]ScalingCell
}

// ScaledParams builds a parameter set for an N×N macrochip that keeps the
// paper's per-channel provisioning rules: 2 wavelengths per point-to-point
// destination (TxPerSite = 2N²), the same WDM factor, and a token round
// trip proportional to the site count.
func ScaledParams(n int) core.Params {
	p := core.DefaultParams()
	p.Grid = geometry.Grid{N: n, PitchCM: p.Grid.PitchCM}
	p.TxPerSite = 2 * n * n
	p.RxPerSite = p.TxPerSite
	p.SiteBandwidthGBs = float64(p.TxPerSite) * p.Comp.BytesPerSecond() / 1e9
	// 80 cycles for 64 sites → 1.25 cycles per site.
	p.TokenRoundTripCycles = (p.TxPerSite / 2 * 5) / 4
	return p
}

// ScalingStudyWith quantifies §6.4's scalability argument across macrochip
// sizes — how waveguide counts, switch counts, and laser power grow for
// each architecture as the grid scales — on the Runner: each grid size is
// an independent analysis, so the sizes fan out across the pool.
func ScalingStudyWith(r Runner, ns []int) []ScalingRow {
	return runIndexed(r, len(ns), func(i int) ScalingRow {
		return cachedScalingRow(r, ns[i])
	})
}

// cachedScalingRow is scalingRow behind the cache. The row is a pure
// analysis of ScaledParams(n), so n and that parameter block are its whole
// identity. Scaling rows are closed-form arithmetic — microseconds, no
// simulation — so they are never worth a network round trip and always
// compute locally.
func cachedScalingRow(r Runner, n int) ScalingRow {
	spec := struct {
		N      int         `json:"n"`
		Params core.Params `json:"params"`
	}{n, ScaledParams(n)}
	return newCell("scalingrow", spec, func() ScalingRow { return scalingRow(n) }).run(r.Cache, nil)
}

// RenderScaling renders the scaling study as text: one header line per
// grid size, then one line per network.
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&b, "%d×%d (%d sites, %.0f TB/s peak)\n", row.N, row.N, row.Sites, row.PeakTBs)
		for _, k := range networks.Six() {
			c := row.Networks[k]
			fmt.Fprintf(&b, "  %-24s wgs=%-8d switches=%-7d loss=%6.1f dB  laser=%12.4g W\n",
				k, c.Waveguides, c.Switches, c.ExtraLossDB, c.LaserWatts)
		}
	}
	return b.String()
}

// scalingRow computes the complexity/power analysis for one grid size.
func scalingRow(n int) ScalingRow {
	p := ScaledParams(n)
	row := ScalingRow{
		N:        n,
		Sites:    n * n,
		PeakTBs:  p.PeakBandwidthGBs() / 1000,
		Networks: map[networks.Kind]ScalingCell{},
	}
	for _, k := range networks.Six() {
		c, err := complexity.ForNetwork(k, p)
		if err != nil {
			panic(err)
		}
		loss := scaledLoss(k, p)
		row.Networks[k] = ScalingCell{
			Waveguides:  c.Waveguides,
			Switches:    c.Switches,
			LaserWatts:  photonics.LaserPowerWatts(p.Comp, c.Wavelengths, loss),
			ExtraLossDB: float64(loss.ExtraDB),
		}
	}
	return row
}

// scaledLoss recomputes each network's extra loss at the given scale: the
// token ring's pass-by ring count grows with the site count; the
// circuit-switched worst-case path grows with N (2 × (N/2 switch points × 2
// per dimension) − 1 ≈ 4N − 1 hops); the others are scale-invariant.
func scaledLoss(k networks.Kind, p core.Params) photonics.NetworkLoss {
	switch k {
	case networks.TokenRing:
		return photonics.TokenRingLoss(p.Comp, p.Grid.Sites(), p.TokenWDM)
	case networks.CircuitSwitched:
		return photonics.CircuitSwitchedLoss(p.Comp, 4*p.Grid.N-1)
	default:
		return power.Loss(k, p)
	}
}
