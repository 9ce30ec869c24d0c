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

// fallbackOptions sends the outputs the sweep leaves open to the fallback
// (parallelMiter and its fresh solvers): a one-conflict output budget and
// the given fallback budget.
func fallbackOptions(fb int64, workers int) cec.Options {
	return cec.Options{OutputBudget: 1, FallbackBudget: fb, Workers: workers, Seed: digestSeed}
}

// fallbackCheck checks the stored netlist, mutated by mutateGate at seed
// unless seed is 0, against its EPFL source, and replays a NOT-EQUAL
// verdict.
func fallbackCheck(t *testing.T, name string, seed int64, opt cec.Options) *cec.Verdict {
	src, err := epfl.BuildScaled(name)
	if err != nil {
		t.Fatal(err)
	}
	nl := readStoredNetlist(t, name)
	if seed != 0 {
		mutateGate(t, nl, seed)
	}
	e, err := cec.Elaborate(nl)
	if err != nil {
		t.Fatal(err)
	}
	v := cec.SweepCheck(ctx, src, e, opt)
	if v.Status == cec.NotEqual {
		replayFailing(t, fmt.Sprintf("%s mutant %d", name, seed), src, e, v)
	}
	return v
}

// fallbackDigests checks every stored netlist, its digestSeed mutant and
// the fallbackMutants with fallbackOptions, each at the default fallback
// budget, where the fallback gives up, and at 100000 conflicts, where it
// proves and refutes. It returns one verdictLine per check.
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
		for _, c := range checks {
			v := fallbackCheck(t, c.name, c.seed, fallbackOptions(fb, workers))
			kind := fmt.Sprintf("fb%d %s%d", fb, c.kind, c.seed)
			got = append(got, verdictLine(kind, c.name, v))
		}
	}
	return got
}

// TestFallbackDigest compares the search-free columns (searchFree) of each
// fallback check with lines recorded before the two-sided miter query
// moved into aig.CNFBuilder.Prove (never re-record them), replays every
// NOT-EQUAL verdict, and requires the same full lines, every Stats counter
// and counterexample included, from one worker and from four.
func TestFallbackDigest(t *testing.T) {
	want := readDigestFile(t, filepath.Join("testdata", "fallback_digest.txt"))
	one := fallbackDigests(t, 1)
	if len(one) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d", len(one), len(want))
	}
	for i := range one {
		if searchFree(one[i]) != searchFree(want[i]) {
			t.Errorf("digest mismatch:\n got %s\nwant %s", one[i], want[i])
		}
	}
	for i, line := range fallbackDigests(t, 4) {
		if line != one[i] {
			t.Errorf("4 workers differ from 1:\n got %s\nwant %s", line, one[i])
		}
	}
}

// TestFallbackCexMetric: the cec.cex counter counts the refutations of the
// per-output fallback as Stats.Cex does. Each fallbackMutants check must
// move the counter by its Stats.Cex, and at least one must reach the
// fallback and be refuted there (a NOT-EQUAL verdict after fallback runs:
// an output refuted on the shared solver ends the check before the
// fallback starts).
func TestFallbackCexMetric(t *testing.T) {
	obs.DisableMetrics()
	reg := obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	refuted := 0
	for _, m := range fallbackMutants {
		before := reg.CounterValues()["cec.cex"]
		v := fallbackCheck(t, m.name, m.seed, fallbackOptions(100000, 1))
		if got := reg.CounterValues()["cec.cex"] - before; got != int64(v.Stats.Cex) {
			t.Errorf("%s mutant %d: Stats.Cex %d, cec.cex moved by %d", m.name, m.seed, v.Stats.Cex, got)
		}
		if v.Status == cec.NotEqual && v.Stats.FallbackRuns > 0 {
			refuted++
		}
	}
	if refuted == 0 {
		t.Error("no mutant was refuted by the fallback: its cec.cex count went untested")
	}
}
