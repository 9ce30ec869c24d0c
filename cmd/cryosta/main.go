// Command cryosta is a standalone signoff tool in the PrimeTime mold: it
// reads a mapped structural Verilog netlist and a characterized liberty
// library, then reports critical-path timing, per-net slack against a
// target clock, and the leakage/internal/switching power split.
//
//	cryosta -lib build/cryolib_10K_200cells.lib design.v
//	cryosta -lib lib.lib -clock 500ps -top 10 design.v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/spice"
	"repro/internal/sta"
)

var flushObs = func() {}

func main() {
	libPath := flag.String("lib", "", "liberty library (.lib)")
	clock := flag.String("clock", "", "target clock period (e.g. 500ps, 1n); default 1.2x critical delay")
	topN := flag.Int("top", 5, "power consumers to list")
	pathsK := flag.Int("paths", 0, "report the K worst endpoint paths with per-arc delay/slew breakdown")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()
	if *libPath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cryosta -lib <lib.lib> [-clock 1n] [-top N] [-paths K] <netlist.v>")
		os.Exit(2)
	}
	flush, err := obsFlags.Activate()
	exitOn(err)
	flushObs = flush
	defer flush()
	ctx, root := obs.Start(context.Background(), "cryosta")
	defer root.End()
	lf, err := os.Open(*libPath)
	exitOn(err)
	lib, err := liberty.Parse(lf)
	lf.Close()
	exitOn(err)
	fmt.Printf("library %s: %d cells, T=%g K, Vdd=%g V\n", lib.Name, len(lib.Cells), lib.TempK, lib.Vdd)

	vf, err := os.Open(flag.Arg(0))
	exitOn(err)
	nl, err := netlist.ReadVerilog(vf, pdk.Catalog())
	vf.Close()
	exitOn(err)
	fmt.Printf("netlist %s: %d gates, %d inputs, %d outputs, area %.0f\n",
		nl.Name, nl.NumGates(), len(nl.Inputs), len(nl.Outputs), nl.Area())

	timing, err := sta.Analyze(ctx, nl, lib, sta.Options{})
	exitOn(err)
	fmt.Printf("\ncritical delay: %.2f ps\n", timing.CriticalDelay*1e12)
	fmt.Println("critical path (output-first):")
	for _, net := range timing.CriticalPath {
		id, _ := timing.Graph.NetIndex(net)
		fmt.Printf("  %-14s arrival %8.2f ps  slew %6.2f ps  load %6.3f fF\n",
			net, timing.Arrival[id]*1e12, timing.Slew[id]*1e12, timing.Load[id]*1e15)
	}

	period := timing.CriticalDelay * 1.2
	if *clock != "" {
		period, err = spice.ParseValue(*clock)
		exitOn(err)
	}
	worst := timing.WorstSlack(period)
	fmt.Printf("\nclock %.2f ps: worst slack %.2f ps", period*1e12, worst*1e12)
	if worst < 0 {
		viol := 0
		for _, s := range timing.Slacks(period) {
			if s < 0 {
				viol++
			}
		}
		fmt.Printf("  (TIMING VIOLATED on %d nets)", viol)
	}
	fmt.Println()

	if *pathsK > 0 {
		fmt.Printf("\ntop %d paths:\n", *pathsK)
		exitOn(sta.WritePathReport(os.Stdout, timing.TopPaths(*pathsK, period)))
	}

	rep, err := power.Analyze(ctx, nl, lib, power.Options{ClockPeriod: period})
	exitOn(err)
	fmt.Printf("\npower @ %.3f GHz:\n", 1e-9/period)
	fmt.Printf("  leakage   %12.4g W  (%7.4f%%)\n", rep.Leakage, rep.LeakageShare()*100)
	fmt.Printf("  internal  %12.4g W  (%7.4f%%)\n", rep.Internal, rep.Internal/rep.Total()*100)
	fmt.Printf("  switching %12.4g W  (%7.4f%%)\n", rep.Switching, rep.Switching/rep.Total()*100)
	fmt.Printf("  total     %12.4g W\n", rep.Total())

	if *topN > 0 {
		cells, err := power.Attribute(ctx, nl, lib, power.Options{ClockPeriod: period})
		exitOn(err)
		fmt.Println("\ntop consumers:")
		exitOn(power.WriteTopConsumers(os.Stdout, cells, *topN))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryosta:", err)
		flushObs()
		os.Exit(1)
	}
}
