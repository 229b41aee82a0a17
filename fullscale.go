package macrochip

import "macrochip/internal/harness"

// WithFullScale2015 configures the unscaled 2015 target system of paper §3,
// which the paper scales down 8× because simulating it was "currently
// intractable" on their infrastructure: 64 cores per site (4 kW total
// compute), 1024 transmitters and receivers per site at 20 Gb/s
// (2.56 TB/s per site, 160 TB/s peak aggregate), 16 wavelengths per
// waveguide, and 16-wavelength (40 GB/s) point-to-point channels.
//
// The event-driven models here handle the full-scale system directly — runs
// are roughly 8× slower than the scaled configuration but entirely
// practical; see BenchmarkFullScale2015.
func WithFullScale2015() Option {
	return func(s *System) {
		p := &s.p
		p.CoresPerSite = 64
		p.TxPerSite = 1024
		p.RxPerSite = 1024
		p.SiteBandwidthGBs = 2560
		p.WavelengthsPerWaveguide = 16
		p.PtPWavelengthsPerChannel = 16 // 40 GB/s per destination channel
		p.LimitedLinkGBs = 160          // one 16-λ waveguide per peer × 2
		p.TwoPhaseChannelGBs = 320
		p.TokenBundleGBs = 2560
		p.CircuitDataGBs = 160
		p.CircuitSlotsPerSite = 8
		p.L2KBPerSite = 2048
		p.MSHRsPerSite = 256
	}
}

// ScalingCell mirrors the per-network complexity/power figures of the
// grid-size scalability study.
type ScalingCell struct {
	Waveguides  int
	Switches    int
	LaserWatts  float64
	ExtraLossDB float64
}

// ScalingRow is one macrochip size of the scalability study.
type ScalingRow struct {
	N       int
	Sites   int
	PeakTBs float64
	// Cells is keyed by network.
	Cells map[Network]ScalingCell
}

// ScalingStudy quantifies the §6.4 scalability argument across macrochip
// grid sizes, under the paper's provisioning rules (2 wavelengths per
// point-to-point destination, constant WDM factor): waveguide and switch
// counts plus the laser power each architecture needs. The token ring's
// laser power explodes with site count (pass-by ring loss); the
// point-to-point network stays at a 1× loss factor at every scale.
func ScalingStudy(ns []int) []ScalingRow {
	rows := []ScalingRow{}
	for _, r := range harness.ScalingStudyWith(harness.Runner{}, ns) {
		row := ScalingRow{N: r.N, Sites: r.Sites, PeakTBs: r.PeakTBs, Cells: map[Network]ScalingCell{}}
		for k, c := range r.Networks {
			row.Cells[Network(k)] = ScalingCell{
				Waveguides:  c.Waveguides,
				Switches:    c.Switches,
				LaserWatts:  c.LaserWatts,
				ExtraLossDB: c.ExtraLossDB,
			}
		}
		rows = append(rows, row)
	}
	return rows
}
