package cec_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/obs"
)

// simStats is what Check's exhaustive path reports for a miter with n
// inputs: its node count and 2^n patterns (one 64-pattern word below six
// inputs), every other counter 0.
func simStats(v *cec.Verdict, n int) cec.Stats {
	return cec.Stats{MiterNodes: v.Stats.MiterNodes, SimPatterns: max(64, 1<<n)}
}

// checkCex demands that a NOT-EQUAL verdict names the smallest differing
// pattern and the lowest output that differs on it, and that the
// counterexample replays through aig.Eval as the verdict says.
func checkCex(t *testing.T, what string, a, b *aig.AIG, v *cec.Verdict) {
	t.Helper()
	p, o := firstDifference(a, b)
	if p < 0 {
		if v.Status != cec.Equal || v.Counterexample != nil {
			t.Fatalf("%s: %v (cex %s), but all 2^%d inputs agree", what, v.Status, v.CexString(), a.NumPIs())
		}
		return
	}
	if v.Status != cec.NotEqual || len(v.Counterexample) != a.NumPIs() {
		t.Fatalf("%s: %v with cex %q, want NOT-EQUAL on pattern %d", what, v.Status, v.CexString(), p)
	}
	for i, bit := range v.Counterexample {
		if bit != (p>>i&1 != 0) {
			t.Fatalf("%s: cex %s, want the smallest differing pattern %d", what, v.CexString(), p)
		}
	}
	if v.FailingOutput != a.POName(o) {
		t.Fatalf("%s: failing output %q, want %q, the lowest that differs on pattern %d", what, v.FailingOutput, a.POName(o), p)
	}
	replayCex(t, what, a, b, v, o)
}

// replayCex demands that a NOT-EQUAL verdict's counterexample, evaluated
// on both circuits through aig.Eval (inputs and outputs paired by
// position), makes output o differ as OutA and OutB say.
func replayCex(t *testing.T, what string, a, b *aig.AIG, v *cec.Verdict, o int) {
	t.Helper()
	if v.Status != cec.NotEqual || len(v.Counterexample) != a.NumPIs() {
		t.Fatalf("%s: %v with cex %q, want NOT-EQUAL with %d inputs", what, v.Status, v.CexString(), a.NumPIs())
	}
	oa, ob := a.Eval(v.Counterexample)[o], b.Eval(v.Counterexample)[o]
	if oa == ob || v.OutA != oa || v.OutB != ob {
		t.Fatalf("%s: cex %s gives (%v,%v) at %s, verdict says (%v,%v)", what, v.CexString(), oa, ob, v.FailingOutput, v.OutA, v.OutB)
	}
}

// TestExhaustiveCheckAgreesWithOracles: on seeded random circuits of 1 to
// 16 inputs, each checked against its optimized copy and against a
// polarity-flip mutant, Check takes the exhaustive path and agrees with
// exhaustive evaluation and with the sweep engine's status.
func TestExhaustiveCheckAgreesWithOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	differ := 0
	for trial := 0; trial < 48; trial++ {
		nPI := 1 + trial%16
		g := cec.RandomAIG(rng, nPI, 10+rng.Intn(60), 1+rng.Intn(4))
		if g.NumNodes() == 0 {
			continue
		}
		target := g.NumPIs() + 1 + rng.Intn(g.NumNodes())
		for _, other := range []*aig.AIG{optimize(g), mutate(g, target)} {
			what := fmt.Sprintf("trial %d (%s, %d inputs)", trial, other.Name, nPI)
			opt := cec.Options{Seed: int64(trial + 1)}
			v := cec.Check(ctx, g, other, opt)
			if v.Stats != simStats(v, nPI) || v.Stats.MiterNodes == 0 {
				t.Fatalf("%s: stats %+v, want the exhaustive path's", what, v.Stats)
			}
			if sw := cec.SweepCheck(ctx, g, other, opt); sw.Status != v.Status {
				t.Fatalf("%s: Check says %v, the sweep %v", what, v.Status, sw.Status)
			}
			if v.Status != cec.Equal {
				differ++
			}
			checkCex(t, what, g, other, v)
		}
	}
	if differ == 0 {
		t.Error("no mutant differed: the NOT-EQUAL path went untested")
	}
}

// TestExhaustiveCheckStoredNetlists: Check on the stored netlists and
// their seeded gate mutants gives the statuses cec_digest.txt records for
// the sweep engine; int2float takes the exhaustive path.
func TestExhaustiveCheckStoredNetlists(t *testing.T) {
	want := map[string]string{}
	for _, line := range readDigestFile(t, filepath.Join("testdata", "cec_digest.txt")) {
		f := strings.Fields(line)
		want[f[0]+" "+f[1]] = f[2]
	}
	for _, name := range digestCircuits {
		src, err := epfl.BuildScaled(name)
		if err != nil {
			t.Fatal(err)
		}
		nl := readStoredNetlist(t, name)
		for _, kind := range []string{"equal", "mutant"} {
			if kind == "mutant" {
				mutateGate(t, nl, digestSeed)
			}
			ea, err := cec.Elaborate(nl)
			if err != nil {
				t.Fatal(err)
			}
			v := cec.Check(ctx, src, ea, cec.Options{Workers: 1, Seed: digestSeed})
			if got := v.Status.String(); got != want[kind+" "+name] {
				t.Errorf("%s %s: %s, digest has %s", kind, name, got, want[kind+" "+name])
			}
			if n := src.NumPIs(); n <= 16 {
				if v.Stats != simStats(v, n) {
					t.Errorf("%s %s (%d inputs): stats %+v, want the exhaustive path's", kind, name, n, v.Stats)
				}
				checkCex(t, kind+" "+name, src, ea, v)
			}
		}
	}
}

// andCircuit builds the conjunction of n inputs, as a chain or as a
// balanced tree, or the constant 0 when zero is set: the two shapes are
// equal and differ from zero only on the last pattern, all inputs 1.
func andCircuit(name string, n int, balanced, zero bool) *aig.AIG {
	g := aig.New(name)
	lits := make([]aig.Lit, n)
	for i := range lits {
		lits[i] = g.AddPI(fmt.Sprintf("x%d", i))
	}
	out := aig.True
	switch {
	case zero:
		out = aig.False
	case balanced:
		for len(lits) > 1 {
			var next []aig.Lit
			for i := 0; i+1 < len(lits); i += 2 {
				next = append(next, g.And(lits[i], lits[i+1]))
			}
			if len(lits)%2 == 1 {
				next = append(next, lits[len(lits)-1])
			}
			lits = next
		}
		if len(lits) == 1 {
			out = lits[0]
		}
	default:
		for _, l := range lits {
			out = g.And(out, l)
		}
	}
	g.AddPO(out, "y")
	return g
}

// TestExhaustiveCheckBoundary: miters of 0, 6, 7 and 16 inputs take the
// exhaustive path (one cec.sim span under cec.check), 17 inputs take the
// sweep. The mutant differs only on the last pattern of the last word.
func TestExhaustiveCheckBoundary(t *testing.T) {
	tr := obs.ResetTracing()
	t.Cleanup(obs.DisableTracing)
	for _, n := range []int{0, 6, 7, 16, 17} {
		chain := andCircuit("chain", n, false, false)
		for _, other := range []*aig.AIG{andCircuit("tree", n, true, false), andCircuit("zero", n, false, true)} {
			what := fmt.Sprintf("%d inputs, chain vs %s", n, other.Name)
			before := len(tr.Roots())
			v := cec.Check(ctx, chain, other, cec.Options{})
			checkCex(t, what, chain, other, v)
			roots := tr.Roots()[before:]
			if len(roots) != 1 || roots[0].Name() != "cec.check" {
				t.Fatalf("%s: %d root spans, want one cec.check", what, len(roots))
			}
			var kids []string
			for _, c := range roots[0].Children() {
				kids = append(kids, c.Name())
			}
			if n <= 16 {
				if v.Stats != simStats(v, n) || strings.Join(kids, ",") != "cec.sim" {
					t.Errorf("%s: stats %+v, spans %v; want the exhaustive path's", what, v.Stats, kids)
				}
			} else if v.Stats.SimPatterns >= 1<<n || len(kids) == 0 || kids[0] != "cec.sweep" {
				t.Errorf("%s: stats %+v, spans %v; want the sweep", what, v.Stats, kids)
			}
		}
	}
}

// TestExhaustiveCheckAllocsPerWord: the exhaustive path allocates nothing
// per simulation word, so 1,024 words cost about the allocations of two.
func TestExhaustiveCheckAllocsPerWord(t *testing.T) {
	allocs := func(n int) float64 {
		a, b := andCircuit("chain", n, false, false), andCircuit("tree", n, true, false)
		return testing.AllocsPerRun(5, func() { cec.Check(ctx, a, b, cec.Options{}) })
	}
	if small, large := allocs(7), allocs(16); large-small > 100 {
		t.Errorf("Check allocates %v times on 7 inputs (2 words), %v on 16 (1,024 words)", small, large)
	}
}
