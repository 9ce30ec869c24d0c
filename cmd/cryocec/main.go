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
// NOT-EQUAL counterexamples are re-executed through independent engines
// (-replay, on by default): mapped-Verilog sides in the event-driven
// gate-level simulator, AIG sides by direct evaluation. A cex that fails to
// replay is reported loudly — it means the checker and the simulators
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

var flushObs = func() {}

func main() {
	budget := flag.Int64("budget", 0, "per-output conflict budget (default 200000)")
	fallback := flag.Int64("fallback-budget", 0, "fallback miter conflict budget (default 2x budget)")
	simWords := flag.Int("sim", 0, "random simulation words of 64 patterns (default 8)")
	workers := flag.Int("workers", 0, "fallback miter workers (default GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "simulation seed")
	verbose := flag.Bool("stats", true, "print engine statistics")
	replayCex := flag.Bool("replay", true, "re-execute NOT-EQUAL counterexamples in the gate-level simulator")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	check(err)
	flushObs = flush
	defer flush()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cryocec [flags] <golden> <impl>   (.aag, .aig, .v, or epfl:<name>)")
		flushObs()
		os.Exit(2)
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
		SimWords:       *simWords,
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
			if *replayCex {
				replay(ctx, v, side{a, nlA}, side{b, nlB})
			}
		}
		flushObs()
		os.Exit(1)
	case cec.Undecided:
		fmt.Printf("UNDECIDED: %d output(s) exhausted their budget: %s\n",
			len(v.UndecidedOutputs), strings.Join(v.UndecidedOutputs, ", "))
		flushObs()
		os.Exit(2)
	}
}

// side is one circuit under comparison; nl is non-nil when it came from a
// mapped Verilog file and can be replayed at gate level.
type side struct {
	g  *aig.AIG
	nl *netlist.Netlist
}

// replay independently re-executes the counterexample on both circuits:
// mapped-Verilog sides run through the event-driven gate-level simulator
// (an engine sharing nothing with the SAT sweep that produced the cex), AIG
// sides through direct evaluation. A cex that fails to reproduce means the
// checker and the simulators disagree about the circuit's function — worth
// shouting about.
func replay(ctx context.Context, v *cec.Verdict, golden, impl side) {
	gv, gHow, err := replayOne(ctx, golden, v)
	if err != nil {
		fmt.Printf("replay: golden side: %v\n", err)
		return
	}
	iv, iHow, err := replayOne(ctx, impl, v)
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
	fmt.Printf("replay: the checker's verdict and the simulators disagree — suspect a flow bug\n")
	obs.C("cec.replay.mismatch").Inc()
	obs.J().Warning("cryocec", "counterexample replay did not reproduce", map[string]string{
		"output": v.FailingOutput,
	})
}

// replayOne evaluates the failing output under the counterexample on one
// side, returning the value and a description of the engine used.
func replayOne(ctx context.Context, s side, v *cec.Verdict) (bool, string, error) {
	if s.nl != nil {
		m, err := gsim.Compile(s.nl)
		if err != nil {
			return false, "", err
		}
		vec := make(gsim.Vector, len(m.InputNames))
		for i, name := range m.InputNames {
			val, ok := cexValue(v, name, i)
			if !ok {
				return false, "", fmt.Errorf("input %s not covered by counterexample", name)
			}
			vec[i] = val
		}
		res, err := gsim.NewEvent(m, gsim.EventOptions{}).Run(ctx, []gsim.Vector{vec})
		if err != nil {
			return false, "", err
		}
		for o, name := range m.OutputNames {
			if name == v.FailingOutput {
				return res.OutputBits[0][o], "gsim event engine", nil
			}
		}
		return false, "", fmt.Errorf("output %s not in netlist", v.FailingOutput)
	}
	in := make([]bool, s.g.NumPIs())
	for i := range in {
		val, ok := cexValue(v, s.g.PIName(i), i)
		if !ok {
			return false, "", fmt.Errorf("PI %s not covered by counterexample", s.g.PIName(i))
		}
		in[i] = val
	}
	outs := s.g.Eval(in)
	for i := 0; i < s.g.NumPOs(); i++ {
		if s.g.POName(i) == v.FailingOutput {
			return outs[i], "AIG evaluation", nil
		}
	}
	return false, "", fmt.Errorf("output %s not in AIG", v.FailingOutput)
}

// cexValue resolves one input's counterexample bit, matching by name first
// (how the checker pairs interfaces) and falling back to position.
func cexValue(v *cec.Verdict, name string, pos int) (bool, bool) {
	for i, n := range v.Inputs {
		if n == name {
			return v.Counterexample[i], true
		}
	}
	if pos >= 0 && pos < len(v.Counterexample) {
		return v.Counterexample[pos], true
	}
	return false, false
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
		flushObs()
		os.Exit(2)
	}
}
