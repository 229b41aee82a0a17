// Command powertool reports the optical power engineering of the macrochip:
// the table-1 component properties, the canonical 17 dB link budget of §2,
// the table-5 loss factors and laser powers, and the table-6 component
// counts.
//
//	powertool                 table 5 + table 6
//	powertool -components     table 1 component properties
//	powertool -budget         un-switched link budget
//	powertool -network X      one network's power detail
//	powertool -floorplan      waveguide length / area / crossing estimates
//	powertool -scaling        complexity & laser power vs macrochip size
//	powertool -yield          Monte-Carlo link-margin yield under tolerance
package main

import (
	"flag"
	"fmt"
	"log"

	"macrochip"
	"macrochip/internal/core"
	"macrochip/internal/harness"
	"macrochip/internal/layout"
	"macrochip/internal/networks"
	"macrochip/internal/power"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powertool: ")
	components := flag.Bool("components", false, "print table-1 component properties")
	budget := flag.Bool("budget", false, "print the un-switched link budget")
	network := flag.String("network", "", "print one network's power detail")
	floorplan := flag.Bool("floorplan", false, "print waveguide floorplan estimates")
	scaling := flag.Bool("scaling", false, "print the grid-size scalability study")
	yield := flag.Bool("yield", false, "print the Monte-Carlo link-margin yield study")
	flag.Parse()

	p := core.DefaultParams()
	switch {
	case *components:
		printComponents(p)
	case *budget:
		fmt.Println("Un-switched site-to-site link budget (paper §2):")
		fmt.Println(macrochip.NewSystem().LinkBudget())
		b := p.Comp
		fmt.Printf("receiver sensitivity %.0f dBm → margin at 0 dBm launch: 4 dB\n", b.ReceiverSensitivityDBM)
	case *floorplan:
		fmt.Println("Waveguide floorplan estimates (routing plant per network):")
		for _, f := range layout.Table(p) {
			fmt.Println(" ", f)
		}
	case *scaling:
		fmt.Println("Scalability study — complexity and laser power vs macrochip size:")
		for _, r := range harness.ScalingStudyWith(harness.Runner{}, []int{4, 8, 16}) {
			fmt.Printf("\n%d×%d (%d sites, %.0f TB/s peak)\n", r.N, r.N, r.Sites, r.PeakTBs)
			for _, k := range networks.Six() {
				c := r.Networks[k]
				fmt.Printf("  %-24s wgs=%-7d switches=%-7d loss=%6.1f dB  laser=%12.4g W\n",
					k, c.Waveguides, c.Switches, c.ExtraLossDB, c.LaserWatts)
			}
		}
	case *yield:
		fmt.Println("Monte-Carlo link-margin yield (10% of nominal component tolerance, 20000 trials):")
		sys := macrochip.NewSystem()
		fmt.Printf("  %-24s %8s %10s %10s %10s\n", "network", "yield", "mean", "p5", "min")
		for _, n := range macrochip.AllNetworks() {
			r := sys.LinkYield(n, 20000)
			fmt.Printf("  %-24s %7.2f%% %7.2f dB %7.2f dB %7.2f dB\n",
				n, r.Yield*100, r.MeanMarginDB, r.P5MarginDB, r.MinMarginDB)
		}
	case *network != "":
		k := networks.Kind(*network)
		loss := power.Loss(k, p)
		fmt.Printf("%s\n", loss.Name)
		fmt.Printf("  extra loss        %6.1f dB (%s)\n", float64(loss.ExtraDB), loss.Detail)
		fmt.Printf("  loss factor       %6.1f×\n", loss.Factor())
		fmt.Printf("  static laser      %6.1f W\n", power.StaticLaserWatts(k, p))
	default:
		fmt.Println(harness.RenderTable5(p))
		fmt.Println(harness.RenderTable6(p))
	}
}

func printComponents(p core.Params) {
	c := p.Comp
	fmt.Println("Table 1 — optical component properties (2014–15 projections)")
	fmt.Printf("  %-28s %8.0f fJ/bit (dynamic), %4.1f dB on / %4.1f dB off\n",
		"modulator", c.ModulatorEnergyFJ, float64(c.ModulatorLossDB), float64(c.ModulatorOffLossDB))
	fmt.Printf("  %-28s %8s            %4.1f dB per coupling\n", "OPxC", "~0", float64(c.OPxCLossDB))
	fmt.Printf("  %-28s %8s            %4.1f dB/cm local, %4.1f dB/cm global\n",
		"waveguide", "~0", float64(c.WaveguideLossDBPerCM), float64(c.GlobalWaveguideLossDBPerCM))
	fmt.Printf("  %-28s %8s            %4.1f dB pass / %4.1f dB drop\n",
		"drop filter", "~0", float64(c.DropPassLossDB), float64(c.DropSelectLossDB))
	fmt.Printf("  %-28s %8.0f fJ/bit (dynamic), sensitivity %5.0f dBm\n",
		"receiver", c.ReceiverEnergyFJ, c.ReceiverSensitivityDBM)
	fmt.Printf("  %-28s %8s            %4.1f dB\n", "broadband switch", "~0", float64(c.SwitchLossDB))
	fmt.Printf("  %-28s %8.0f fJ/bit (static)\n", "laser", c.LaserEnergyFJ)
	fmt.Printf("  line rate %.0f Gb/s per wavelength (%.1f GB/s)\n", c.BitRateGbps, c.BytesPerSecond()/1e9)
}
