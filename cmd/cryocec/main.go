// Command cryocec is the standalone combinational equivalence checker — the
// flow's analogue of ABC's `cec`. It compares two circuit representations
// in any mix of formats and prints a structured verdict:
//
//	cryocec golden.aag optimized.aag          # AIGER vs AIGER
//	cryocec golden.aag mapped.v               # AIGER vs mapped Verilog
//	cryocec epfl:adder adder_opt.aig          # EPFL generator vs binary AIGER
//
// Formats are selected by extension: .aag (ASCII AIGER), .aig (binary
// AIGER), .v (structural Verilog over the built-in PDK cell catalog,
// re-elaborated to an AIG), and the epfl:<name> pseudo-path for generated
// benchmarks. Primary inputs/outputs are paired by name when both sides
// carry matching name sets, positionally otherwise.
//
// cec.Check replays every NOT-EQUAL counterexample on both AIGs; cryocec
// also re-executes it on mapped-Verilog sides in the event-driven
// gate-level simulator, on the ports the check paired. A cex that fails to
// replay there is reported loudly — it means the checker and the simulator
// disagree about the circuit.
//
// Exit status: 0 EQUAL, 1 NOT-EQUAL (a counterexample vector is printed),
// 2 UNDECIDED or error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/gsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
)

func main() {
	budget := flag.Int64("budget", 0, "per-output conflict budget (default 200000)")
	fallback := flag.Int64("fallback-budget", 0, "fallback miter conflict budget (default 2x budget)")
	workers := flag.Int("workers", 0, "fallback miter workers (default GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "simulation seed")
	verbose := flag.Bool("stats", true, "print engine statistics")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	check(err)
	defer flush()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cryocec [flags] <golden> <impl>   (.aag, .aig, .v, or epfl:<name>)")
		obs.Exit(2)
	}
	a, nlA, err := load(flag.Arg(0))
	check(err)
	b, nlB, err := load(flag.Arg(1))
	check(err)
	fmt.Printf("golden: %s\nimpl:   %s\n", a, b)

	ctx, root := obs.Start(context.Background(), "cryocec")
	v := cec.Check(ctx, a, b, cec.Options{
		OutputBudget:   *budget,
		FallbackBudget: *fallback,
		Workers:        *workers,
		Seed:           *seed,
	})
	root.End()

	if *verbose {
		s := v.Stats
		fmt.Printf("engine: miter=%d reduced=%d patterns=%d refinements=%d merges=%d(struct)+%d(local)+%d(sat) sat_calls=%d timeouts=%d cex=%d fallback=%d\n",
			s.MiterNodes, s.ReducedNodes, s.SimPatterns, s.Refinements,
			s.StructMerges, s.LocalMerges, s.SATMerges, s.SATCalls, s.SATTimeouts, s.Cex, s.FallbackRuns)
	}
	switch v.Status {
	case cec.Equal:
		fmt.Println("EQUAL: all outputs proven equivalent")
	case cec.NotEqual:
		if v.Reason != "" {
			fmt.Printf("NOT-EQUAL: %s\n", v.Reason)
		} else {
			fmt.Printf("NOT-EQUAL: output %s differs (golden=%v impl=%v)\n", v.FailingOutput, v.OutA, v.OutB)
			fmt.Printf("counterexample: %s\n", v.CexString())
			replay(ctx, v, nlA, nlB)
		}
		obs.Exit(1)
	case cec.Undecided:
		if v.Reason != "" {
			fmt.Printf("UNDECIDED: %s\n", v.Reason)
		} else {
			fmt.Printf("UNDECIDED: %d output(s) exhausted their budget: %s\n",
				len(v.UndecidedOutputs), strings.Join(v.UndecidedOutputs, ", "))
		}
		obs.Exit(2)
	}
}

// replay re-executes the counterexample on both sides: a mapped-Verilog
// side runs through the event-driven gate-level simulator (an engine
// sharing nothing with the SAT sweep that produced the cex), an AIG side
// reads the value cec.Check's own replay evaluated. A cex that fails to
// reproduce means the checker and the simulator disagree about the
// circuit's function — worth shouting about.
func replay(ctx context.Context, v *cec.Verdict, nlA, nlB *netlist.Netlist) {
	gv, gHow, err := replayOne(ctx, nlA, v.Counterexample, v.OutputA, v.OutA)
	if err != nil {
		fmt.Printf("replay: golden side: %v\n", err)
		return
	}
	iv, iHow, err := replayOne(ctx, nlB, v.CexB, v.OutputB, v.OutB)
	if err != nil {
		fmt.Printf("replay: impl side: %v\n", err)
		return
	}
	if gv != iv {
		fmt.Printf("replay: CONFIRMED  golden[%s]=%v (%s)  impl[%s]=%v (%s)\n",
			v.FailingOutput, gv, gHow, v.FailingOutput, iv, iHow)
		obs.C("cec.replay.confirmed").Inc()
		return
	}
	fmt.Printf("replay: *** WARNING: counterexample did NOT reproduce ***\n")
	fmt.Printf("replay: both sides evaluate %s=%v (golden via %s, impl via %s);\n",
		v.FailingOutput, gv, gHow, iHow)
	fmt.Printf("replay: the checker's verdict and the simulator disagree — suspect a flow bug\n")
	obs.C("cec.replay.mismatch").Inc()
	obs.Warn("cryocec", "counterexample replay did not reproduce", map[string]string{
		"output": v.FailingOutput,
	})
}

// replayOne returns one side's value of output po under the input vector
// cex (both in that side's own port order) and the engine that computed
// it: the gate-level simulator for a netlist, else cec.Check's AIG
// evaluation aigVal.
func replayOne(ctx context.Context, nl *netlist.Netlist, cex []bool, po int, aigVal bool) (bool, string, error) {
	if nl == nil {
		return aigVal, "AIG evaluation", nil
	}
	m, err := gsim.Compile(nl)
	if err != nil {
		return false, "", err
	}
	res, err := gsim.NewEvent(m, gsim.EventOptions{}).Run(ctx, []gsim.Vector{cex})
	if err != nil {
		return false, "", err
	}
	return res.OutputBits[0][po], "gsim event engine", nil
}

// load reads a circuit by extension, or builds an EPFL benchmark for
// epfl:<name> pseudo-paths. Mapped Verilog files also return the parsed
// netlist so counterexamples can be replayed at gate level.
func load(path string) (*aig.AIG, *netlist.Netlist, error) {
	if name, ok := strings.CutPrefix(path, "epfl:"); ok {
		g, err := epfl.Build(name)
		return g, nil, err
	}
	switch {
	case strings.HasSuffix(path, ".v"):
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		nl, err := netlist.ReadVerilog(f, pdk.Catalog())
		if err != nil {
			return nil, nil, err
		}
		g, err := cec.Elaborate(nl)
		return g, nl, err
	case strings.HasSuffix(path, ".aig"):
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := aig.ReadAIGERBinary(f)
		return g, nil, err
	default:
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := aig.ReadAIGER(f)
		return g, nil, err
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryocec:", err)
		obs.Exit(2)
	}
}
