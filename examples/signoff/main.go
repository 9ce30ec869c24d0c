// Signoff example: map one benchmark, then run the PrimeTime-style signoff
// views this library provides — critical path with per-net arrivals, slack
// histogram against a target clock, the leakage/internal/switching power
// split, and the top power consumers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

func main() {
	name := flag.String("circuit", "router", "EPFL benchmark")
	clockPs := flag.Float64("clock", 0, "target clock period in ps (default: critical delay * 1.2)")
	flag.Parse()
	ctx := context.Background()

	g, err := epfl.Build(*name)
	exitOn(err)
	catalog := pdk.Catalog()
	lib, used := testlib.Build(catalog, testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, used, 6)
	exitOn(err)
	res, err := synth.Synthesize(ctx, g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: 11})
	exitOn(err)
	nl := res.Netlist
	fmt.Printf("%s mapped: %d gates, area %.0f\n", g.Name, nl.NumGates(), nl.Area())

	timing, err := sta.Analyze(ctx, nl, lib, sta.Options{})
	exitOn(err)
	fmt.Printf("\ncritical path (%.2f ps), output-first:\n", timing.CriticalDelay*1e12)
	for _, net := range timing.CriticalPath {
		id, _ := timing.Graph.NetIndex(net)
		fmt.Printf("  %-12s arrival %7.2f ps  slew %6.2f ps\n",
			net, timing.Arrival[id]*1e12, timing.Slew[id]*1e12)
	}

	period := timing.CriticalDelay * 1.2
	if *clockPs > 0 {
		period = *clockPs * 1e-12
	}
	slacks := timing.Slacks(period)
	fmt.Printf("\nslack distribution at %.2f ps clock (worst %.2f ps):\n",
		period*1e12, timing.WorstSlack(period)*1e12)
	printSlackHistogram(slacks, period)

	rep, err := power.Analyze(ctx, nl, lib, power.Options{ClockPeriod: period, Seed: 11})
	exitOn(err)
	fmt.Printf("\npower at %.2f ps clock: total %.3f uW\n", period*1e12, rep.Total()*1e6)
	fmt.Printf("  leakage   %10.4g W (%6.3f%%)\n", rep.Leakage, rep.LeakageShare()*100)
	fmt.Printf("  internal  %10.4g W (%6.3f%%)\n", rep.Internal, rep.Internal/rep.Total()*100)
	fmt.Printf("  switching %10.4g W (%6.3f%%)\n", rep.Switching, rep.Switching/rep.Total()*100)

	cells, err := power.Attribute(ctx, nl, lib, power.Options{ClockPeriod: period, Seed: 11})
	exitOn(err)
	fmt.Println("\ntop power consumers:")
	exitOn(power.WriteTopConsumers(os.Stdout, cells, 5))
}

func printSlackHistogram(slacks map[string]float64, period float64) {
	var vals []float64
	for _, s := range slacks {
		vals = append(vals, s)
	}
	sort.Float64s(vals)
	const bins = 8
	lo, hi := vals[0], vals[len(vals)-1]
	if hi == lo {
		hi = lo + 1e-12
	}
	counts := make([]int, bins)
	for _, v := range vals {
		i := int(float64(bins) * (v - lo) / (hi - lo))
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	for i, c := range counts {
		left := (lo + (hi-lo)*float64(i)/bins) * 1e12
		right := (lo + (hi-lo)*float64(i+1)/bins) * 1e12
		bar := ""
		for j := 0; j < c; j++ {
			bar += "#"
		}
		fmt.Printf("  %7.2f..%-7.2f ps |%s\n", left, right, bar)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
