// Command cryosynth runs the paper's evaluation (Section V): it synthesizes
// the EPFL benchmark suite under the three scenarios (state-of-the-art
// power-aware baseline, and the proposed cryogenic-aware p->a->d and
// p->d->a cost hierarchies), maps onto the characterized cryogenic
// standard-cell library, and reports:
//
//	-fig3       per-circuit power savings and delay overheads (Fig 3a/3b)
//	-breakdown  the leakage/internal/switching split at 300 K vs 10 K (Fig 2c)
//	-verify     formal signoff gate: SAT-sweeping equivalence proofs that
//	            pre-opt ≡ post-opt ≡ mapped netlist for every scenario
//	            (docs/CEC.md); the run exits non-zero on any failure
//
// With -testlib a fast synthetic library replaces the SPICE-characterized
// one (useful for smoke runs); by default the SPICE-characterized 200-cell
// libraries are built (and cached) first; -progress reports their
// characterization live (cells and arcs done, rate, ETA).
//
// Observability: -metrics, -trace, -journal, and the other obs flags
// are shared by all flow binaries; see docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cec"
	"repro/internal/charlib"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/synth"
)

func main() {
	circuits := flag.String("circuits", "", "comma-separated benchmark names (default: whole suite)")
	useTest := flag.Bool("testlib", false, "use the fast synthetic library instead of SPICE characterization")
	cacheDir := flag.String("cache", "build", "liberty cache directory")
	fig3 := flag.Bool("fig3", true, "run the Fig 3 scenario comparison")
	breakdown := flag.Bool("breakdown", false, "run the Fig 2(c) power-breakdown comparison")
	top := flag.Int("top", 0, "also print the N highest-power instances per circuit (baseline scenario)")
	seed := flag.Int64("seed", 1, "simulation seed")
	verify := flag.Bool("verify", false, "run the formal equivalence signoff gate on every scenario")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	check(err)
	defer flush()

	names := epfl.Names()
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}

	ctx, root := obs.Start(context.Background(), "cryosynth")
	defer root.End()

	lib10, lib300, cells := loadLibraries(ctx, *useTest, *cacheDir)
	ml10, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	check(err)

	if *verify && !runVerify(ctx, names, ml10, *seed) {
		check(fmt.Errorf("verification FAILED (see table above)"))
	}
	if *breakdown {
		ml300, err := mapper.BuildMatchLibrary(lib300, cells, 6)
		check(err)
		runBreakdown(ctx, names, ml300, ml10, lib300, lib10, *seed)
	}
	if *fig3 {
		runFig3(ctx, names, ml10, lib10, *seed)
	}
	if *top > 0 {
		runTopConsumers(ctx, names, ml10, lib10, *seed, *top)
	}
	root.End()
}

// runTopConsumers prints the signoff-style per-instance power table for the
// baseline synthesis of each circuit.
func runTopConsumers(ctx context.Context, names []string, ml *mapper.MatchLibrary, lib *liberty.Library, seed int64, n int) {
	for _, name := range names {
		g, err := epfl.Build(name)
		check(err)
		res, err := synth.Synthesize(ctx, g, ml, synth.Options{Scenario: synth.BaselinePowerAware, Seed: seed})
		check(err)
		_, cells, err := power.AnalyzeTimed(ctx, res.Netlist, lib, nil, power.Options{ClockPeriod: 1e-9, Seed: seed})
		check(err)
		fmt.Printf("\n--- %s: top %d power consumers (1 GHz) ---\n", name, n)
		check(power.WriteTopConsumers(os.Stdout, cells, n))
	}
}

func loadLibraries(ctx context.Context, useTest bool, cacheDir string) (lib10, lib300 *liberty.Library, cells []*pdk.Cell) {
	load := func(tempK float64) *liberty.Library {
		if !useTest {
			fmt.Printf("characterizing / loading %g K library...\n", tempK)
		}
		lib, c, err := charlib.Corner{TempK: tempK, Testlib: useTest, CacheDir: cacheDir}.Library(ctx)
		check(err)
		cells = c
		return lib
	}
	lib300 = load(300)
	lib10 = load(10)
	if useTest {
		fmt.Printf("using synthetic test library (%d cells)\n", len(cells))
	}
	return lib10, lib300, cells
}

// runFig3 reproduces Fig 3(a,b): per-circuit power savings and delay
// overheads of the cryogenic-aware cost hierarchies vs the baseline.
func runFig3(ctx context.Context, names []string, ml *mapper.MatchLibrary, lib *liberty.Library, seed int64) {
	fmt.Println("\n=== Fig 3 — cryogenic-aware synthesis vs state-of-the-art power-aware baseline (10 K library) ===")
	fmt.Printf("%-12s %10s | %9s %9s | %9s %9s\n",
		"circuit", "base(uW)", "pad dP%", "pda dP%", "pad dD%", "pda dD%")
	var sumPAD, sumPDA, sumDPAD, sumDPDA float64
	count := 0
	task := obs.Progress("synth.fig3", int64(len(names)))
	defer task.Finish()
	for _, name := range names {
		g, err := epfl.Build(name)
		check(err)
		cmp, err := synth.Compare(ctx, g, ml, lib, synth.FlowOptions{Seed: seed})
		task.Inc()
		if err != nil {
			fmt.Printf("%-12s FAILED: %v\n", name, err)
			continue
		}
		padP := cmp.PowerSaving(synth.CryoPAD) * 100
		pdaP := cmp.PowerSaving(synth.CryoPDA) * 100
		padD := cmp.DelayOverhead(synth.CryoPAD) * 100
		pdaD := cmp.DelayOverhead(synth.CryoPDA) * 100
		fmt.Printf("%-12s %10.3f | %+9.2f %+9.2f | %+9.2f %+9.2f\n",
			name, cmp.Metrics[synth.BaselinePowerAware].Power.Total()*1e6,
			padP, pdaP, padD, pdaD)
		sumPAD += padP
		sumPDA += pdaP
		sumDPAD += padD
		sumDPDA += pdaD
		count++
	}
	if count > 0 {
		n := float64(count)
		fmt.Printf("%-12s %10s | %+9.2f %+9.2f | %+9.2f %+9.2f\n",
			"AVERAGE", "", sumPAD/n, sumPDA/n, sumDPAD/n, sumDPDA/n)
		fmt.Println("\npaper reference: avg power saving 6.47% (p->a->d) / 5.74% (p->d->a);")
		fmt.Println("avg delay overhead -6.21% (p->a->d) / -1.74% (p->d->a); best-case saving up to 28%.")
	}
}

// runVerify is the formal signoff gate (-verify): for every circuit and
// every scenario it proves pre-opt ≡ post-opt and post-opt ≡ mapped netlist
// with the SAT-sweeping equivalence engine, printing one PASS/FAIL row per
// (circuit, scenario) pair. Returns false if any check is not EQUAL.
func runVerify(ctx context.Context, names []string, ml *mapper.MatchLibrary, seed int64) bool {
	fmt.Println("\n=== formal equivalence signoff (pre-opt ≡ post-opt ≡ mapped) ===")
	fmt.Printf("%-12s %-10s %10s %12s | %s\n", "circuit", "scenario", "pre≡post", "post≡mapped", "result")
	scenarios := []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA}
	ok := true
	task := obs.Progress("synth.verify", int64(len(names))*int64(len(scenarios)))
	defer task.Finish()
	for _, name := range names {
		g, err := epfl.Build(name)
		check(err)
		front := synth.Prepare(ctx, g, synth.Options{Seed: seed})
		for _, sc := range scenarios {
			res, err := front.Synthesize(ctx, ml, sc)
			check(err)
			rep, err := synth.SignoffVerify(ctx, g, res, cec.Options{Seed: seed})
			check(err)
			task.Inc()
			result := "PASS"
			if !rep.OK() {
				result = "FAIL"
				ok = false
			}
			fmt.Printf("%-12s %-10s %10s %12s | %s\n",
				name, sc, rep.PrePost.Status, rep.PostMapped.Status, result)
			for _, v := range []*cec.Verdict{rep.PrePost, rep.PostMapped} {
				if v.Reason != "" {
					fmt.Printf("    reason: %s\n", v.Reason)
				}
				switch {
				case v.Status == cec.NotEqual && v.Reason == "":
					fmt.Printf("    output %s differs (golden=%v impl=%v), cex: %s\n",
						v.FailingOutput, v.OutA, v.OutB, v.CexString())
				case v.Status == cec.Undecided:
					fmt.Printf("    undecided outputs: %s\n", strings.Join(v.UndecidedOutputs, ", "))
				}
			}
		}
	}
	if ok {
		fmt.Println("signoff: all scenarios formally verified")
	}
	return ok
}

// runBreakdown reproduces Fig 2(c): the average leakage/internal/switching
// contribution at 300 K vs 10 K across the suite.
func runBreakdown(ctx context.Context, names []string, ml300, ml10 *mapper.MatchLibrary, lib300, lib10 *liberty.Library, seed int64) {
	fmt.Println("\n=== Fig 2(c) — power breakdown: 300 K vs 10 K ===")
	type acc struct{ leak, internal, sw float64 }
	var a300, a10 acc
	count := 0
	task := obs.Progress("synth.breakdown", int64(len(names)))
	defer task.Finish()
	for _, name := range names {
		g, err := epfl.Build(name)
		check(err)
		front := synth.Prepare(ctx, g, synth.Options{Seed: seed})
		for _, corner := range []struct {
			ml  *mapper.MatchLibrary
			lib *liberty.Library
			acc *acc
		}{{ml300, lib300, &a300}, {ml10, lib10, &a10}} {
			res, err := front.Synthesize(ctx, corner.ml, synth.BaselinePowerAware)
			check(err)
			rep, err := power.Analyze(ctx, res.Netlist, corner.lib, power.Options{
				ClockPeriod: 1e-9, Seed: seed,
			})
			check(err)
			t := rep.Total()
			corner.acc.leak += rep.Leakage / t
			corner.acc.internal += rep.Internal / t
			corner.acc.sw += rep.Switching / t
		}
		task.Inc()
		count++
	}
	n := float64(count)
	fmt.Printf("%-10s %12s %12s\n", "category", "300K", "10K")
	fmt.Printf("%-10s %11.4f%% %11.6f%%\n", "leakage", a300.leak/n*100, a10.leak/n*100)
	fmt.Printf("%-10s %11.4f%% %11.4f%%\n", "internal", a300.internal/n*100, a10.internal/n*100)
	fmt.Printf("%-10s %11.4f%% %11.4f%%\n", "switching", a300.sw/n*100, a10.sw/n*100)
	fmt.Println("\npaper reference: leakage ~15% at 300 K collapsing to ~0.003% at 10 K.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryosynth:", err)
		obs.Exit(1)
	}
}
