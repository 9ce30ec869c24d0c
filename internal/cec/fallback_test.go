package cec_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/obs"
)

// fallbackMutants are gate mutants (netlist, mutateGate seed) whose
// differing or undecided outputs survive a one-conflict output budget and
// reach the per-output miter fallback; of the digestSeed mutants only
// int2float's does.
var fallbackMutants = []struct {
	name string
	seed int64
}{{"bar", 203}, {"div", 206}, {"div", 209}}

// fallbackDigests checks every stored netlist, its digestSeed mutant and
// the fallbackMutants with a one-conflict output budget, so the outputs
// the sweep leaves open go to the fallback (parallelMiter and its fresh
// solvers). Each check runs at the default fallback budget, where the
// fallback gives up, and at 100000 conflicts, where it proves and refutes.
// It returns one verdictLine per check.
func fallbackDigests(t *testing.T, workers int) []string {
	type check struct {
		kind, name string
		seed       int64 // mutateGate seed; 0 checks the stored netlist
	}
	var checks []check
	for _, name := range digestCircuits {
		checks = append(checks, check{"equal", name, 0}, check{"mutant", name, digestSeed})
	}
	for _, m := range fallbackMutants {
		checks = append(checks, check{"mutant", m.name, m.seed})
	}
	var got []string
	for _, fb := range []int64{0, 100000} {
		opt := cec.Options{OutputBudget: 1, FallbackBudget: fb, Workers: workers, Seed: digestSeed}
		for _, c := range checks {
			src, err := epfl.BuildScaled(c.name)
			if err != nil {
				t.Fatal(err)
			}
			nl := readStoredNetlist(t, c.name)
			if c.seed != 0 {
				mutateGate(t, nl, c.seed)
			}
			e, err := cec.Elaborate(nl)
			if err != nil {
				t.Fatal(err)
			}
			kind := fmt.Sprintf("fb%d %s%d", fb, c.kind, c.seed)
			got = append(got, verdictLine(kind, c.name, cec.SweepCheck(ctx, src, e, opt)))
		}
	}
	return got
}

// TestFallbackDigest pins verdict, every Stats counter and the
// counterexample of each fallback check to lines recorded before the
// two-sided miter query moved into aig.CNFBuilder.Prove (never re-record
// them), and requires the same lines from one worker and from four.
func TestFallbackDigest(t *testing.T) {
	want := readDigestFile(t, filepath.Join("testdata", "fallback_digest.txt"))
	for _, workers := range []int{1, 4} {
		got := fallbackDigests(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers %d: computed %d digest lines, testdata has %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers %d: digest mismatch:\n got %s\nwant %s", workers, got[i], want[i])
			}
		}
	}
}

// TestFallbackCexMetric: the cec.cex counter counts the refutations of the
// per-output fallback as Stats.Cex does. On the div mutant at seed 206 the
// sweep refutes 13 queries and the fallback 30.
func TestFallbackCexMetric(t *testing.T) {
	obs.DisableMetrics()
	reg := obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	src, err := epfl.BuildScaled("div")
	if err != nil {
		t.Fatal(err)
	}
	nl := readStoredNetlist(t, "div")
	mutateGate(t, nl, 206)
	e, err := cec.Elaborate(nl)
	if err != nil {
		t.Fatal(err)
	}
	v := cec.SweepCheck(ctx, src, e, cec.Options{OutputBudget: 1, FallbackBudget: 100000, Workers: 1, Seed: digestSeed})
	if got := reg.CounterValues()["cec.cex"]; v.Stats.Cex != 43 || got != int64(v.Stats.Cex) {
		t.Errorf("Stats.Cex %d, cec.cex %d; want 43 both", v.Stats.Cex, got)
	}
}
