// Command cryosim is the gate-level simulator CLI: it runs a mapped netlist
// over random (or clock-alternating) stimulus with either the zero-delay
// levelized engine or the event-driven engine with liberty-annotated
// transport delays, and reports toggle activity, optional VCD traces, and
// an optional measured-activity power report:
//
//	cryosim mapped.v                          # event engine, annotated delays
//	cryosim -engine levelized mapped.v        # fast zero-delay functional run
//	cryosim -vcd trace.vcd epfl:ctrl          # synthesize, simulate, dump VCD
//	cryosim -power -clock 1e-9 mapped.v       # power from measured activity
//
// Inputs are a mapped structural Verilog file (.v over the built-in PDK
// catalog) or an epfl:<name> pseudo-path, which synthesizes the benchmark
// through the full flow (testlib liberty model, cut mapper, CryoPDA
// scenario) first. Delay annotation and power use the same fabricated
// liberty library, built at -temp kelvin.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/epfl"
	"repro/internal/gsim"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

func main() {
	engine := flag.String("engine", "event", "simulation engine: event or levelized")
	vectors := flag.Int("vectors", 256, "number of stimulus vectors")
	seed := flag.Int64("seed", 1, "stimulus seed")
	temp := flag.Float64("temp", 300, "liberty corner temperature in kelvin (testlib model)")
	unit := flag.Bool("unit", false, "use unit arc delays instead of liberty annotation (event engine)")
	period := flag.Int64("period", 0, "stimulus period in fs (0 = auto from settle bound)")
	vcdPath := flag.String("vcd", "", "dump value changes to this VCD file (event engine)")
	doPower := flag.Bool("power", false, "run power analysis with the measured activity")
	clock := flag.Float64("clock", 1e-9, "clock period in seconds for -power")
	top := flag.Int("top", 10, "hottest nets to list with -stats")
	stats := flag.Bool("stats", true, "print run statistics")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	check(err)
	defer flush()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cryosim [flags] <mapped.v | epfl:name>")
		obs.Exit(2)
	}

	ctx, root := obs.Start(context.Background(), "cryosim")
	defer root.End()

	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), *temp)
	nl, err := load(ctx, flag.Arg(0), lib, cells, *seed)
	check(err)
	m, err := gsim.Compile(nl)
	check(err)
	fmt.Printf("design: %s  (%d gates, %d nets, depth %d)\n",
		nl.Name, len(m.Gates), m.NumNets(), m.Depth())

	var eng gsim.Engine
	switch *engine {
	case "levelized":
		eng = gsim.NewLevelized(m)
	case "event":
		opt := gsim.EventOptions{PeriodFs: *period}
		if !*unit {
			check(m.Annotate(ctx, lib, sta.Options{}))
		}
		if *vcdPath != "" {
			f, err := os.Create(*vcdPath)
			check(err)
			defer f.Close()
			opt.Trace = gsim.NewVCDTracer(f, m, "cryosim")
		}
		eng = gsim.NewEvent(m, opt)
	default:
		check(fmt.Errorf("unknown engine %q (want event or levelized)", *engine))
	}

	res, err := eng.Run(ctx, m.RandomVectors(*vectors, *seed))
	check(err)

	if *stats {
		fmt.Printf("engine: %s  vectors=%d toggles=%d", res.Engine, res.Vectors, res.TotalToggles())
		if res.Engine == "event" {
			fmt.Printf(" events=%d max_queue=%d sim_time=%d fs annotated=%v",
				res.Events, res.MaxQueue, res.SimTimeFs, m.Annotated())
		}
		fmt.Println()
		printHotNets(m, res, *top)
	}
	obs.J().Event("sim.run", "cryosim", "simulation complete", map[string]string{
		"design":  nl.Name,
		"engine":  res.Engine,
		"vectors": fmt.Sprint(res.Vectors),
		"toggles": fmt.Sprint(res.TotalToggles()),
	})
	if *vcdPath != "" {
		obs.J().Artifact("cryosim", *vcdPath)
	}

	if *doPower {
		rep, err := power.Analyze(ctx, nl, lib, power.Options{
			ClockPeriod: *clock,
			Activity:    res.ToggleRates(),
		})
		check(err)
		fmt.Printf("power (measured activity, clock %.3g s, %g K):\n", *clock, *temp)
		fmt.Printf("  leakage   %12.6g W\n", rep.Leakage)
		fmt.Printf("  internal  %12.6g W\n", rep.Internal)
		fmt.Printf("  switching %12.6g W\n", rep.Switching)
		fmt.Printf("  total     %12.6g W  (leakage share %.4g%%)\n",
			rep.Total(), 100*rep.LeakageShare())
	}
}

// printHotNets lists the n nets with the highest toggle densities.
func printHotNets(m *gsim.Model, res *gsim.Result, n int) {
	type hot struct {
		name string
		rate float64
	}
	rates := res.ToggleRates()
	nets := make([]hot, 0, len(rates))
	for name, r := range rates {
		if r > 0 {
			nets = append(nets, hot{name, r})
		}
	}
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].rate != nets[j].rate {
			return nets[i].rate > nets[j].rate
		}
		return nets[i].name < nets[j].name
	})
	if n > len(nets) {
		n = len(nets)
	}
	for _, h := range nets[:n] {
		fmt.Printf("  net %-24s %.4f toggles/vector\n", h.name, h.rate)
	}
}

// load produces a mapped netlist: .v files are parsed over the PDK catalog,
// epfl:<name> benchmarks are synthesized through the standard flow.
func load(ctx context.Context, path string, lib *liberty.Library, cells []*pdk.Cell, seed int64) (*netlist.Netlist, error) {
	if name, ok := strings.CutPrefix(path, "epfl:"); ok {
		g, err := epfl.Build(name)
		if err != nil {
			return nil, err
		}
		ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
		if err != nil {
			return nil, err
		}
		res, err := synth.Synthesize(ctx, g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Netlist, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.ReadVerilog(f, pdk.Catalog())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryosim:", err)
		obs.Exit(2)
	}
}
