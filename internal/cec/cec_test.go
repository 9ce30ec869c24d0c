package cec_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
)

var ctx = context.Background()

// optimize runs a c2rs-style pass chain, giving a structurally different
// but functionally identical AIG.
func optimize(g *aig.AIG) *aig.AIG {
	return g.Balance().
		Resub(1).
		Rewrite(false).
		Refactor().
		Balance().
		Rewrite(true).
		Balance()
}

// mutate rebuilds g with one AND-input polarity flipped at the given
// variable — the classic seeded fault for validating a checker.
func mutate(g *aig.AIG, target int) *aig.AIG {
	out := aig.New(g.Name + "_mut")
	m := make([]aig.Lit, g.NumVars())
	m[0] = aig.False
	for i := 0; i < g.NumPIs(); i++ {
		m[i+1] = out.AddPI(g.PIName(i))
	}
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		f0, f1 := g.Fanins(v)
		a := m[f0.Var()].NotIf(f0.IsCompl())
		b := m[f1.Var()].NotIf(f1.IsCompl())
		if v == target {
			a = a.Not()
		}
		m[v] = out.And(a, b)
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(m[po.Var()].NotIf(po.IsCompl()), g.POName(i))
	}
	return out
}

func TestOptimizedCircuitsEqual(t *testing.T) {
	for _, name := range []string{"ctrl", "int2float", "dec", "cavlc", "router"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		v := cec.Check(ctx, g, optimize(g), cec.Options{Seed: 7})
		if v.Status != cec.Equal {
			t.Errorf("%s: %v (reason %q, failing %q cex %q)",
				name, v.Status, v.Reason, v.FailingOutput, v.CexString())
		}
		if v.Stats.MiterNodes == 0 || v.Stats.SimPatterns == 0 {
			t.Errorf("%s: stats not populated: %+v", name, v.Stats)
		}
	}
}

// TestSeededMutation is the checker's own signoff: flip one AND input
// polarity in an optimized EPFL AIG and demand NOT-EQUAL with a concrete
// counterexample that aig.Eval confirms distinguishes the two circuits.
func TestSeededMutation(t *testing.T) {
	for _, name := range []string{"int2float", "ctrl", "dec"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimize(g)
		// Fault site: the driver of the first primary output that is an
		// AND node (always exists in these benchmarks after optimization).
		target := -1
		for i := 0; i < opt.NumPOs(); i++ {
			if v := opt.PO(i).Var(); opt.IsAnd(v) {
				target = v
				break
			}
		}
		if target < 0 {
			t.Fatalf("%s: no AND-driven output to mutate", name)
		}
		mut := mutate(opt, target)
		v := cec.Check(ctx, opt, mut, cec.Options{Seed: 3})
		if v.Status != cec.NotEqual {
			t.Fatalf("%s: mutation not caught: %v", name, v.Status)
		}
		if v.Counterexample == nil || v.FailingOutput == "" {
			t.Fatalf("%s: NOT-EQUAL verdict without counterexample: %+v", name, v)
		}
		// Replay the counterexample through both circuits independently.
		poIdx := -1
		for i := 0; i < opt.NumPOs(); i++ {
			if opt.POName(i) == v.FailingOutput {
				poIdx = i
				break
			}
		}
		if poIdx < 0 {
			t.Fatalf("%s: failing output %q not found", name, v.FailingOutput)
		}
		a := opt.Eval(v.Counterexample)[poIdx]
		b := mut.Eval(v.Counterexample)[poIdx]
		if a == b {
			t.Fatalf("%s: counterexample %s does not distinguish output %s",
				name, v.CexString(), v.FailingOutput)
		}
		if v.OutA != a || v.OutB != b {
			t.Errorf("%s: verdict output values (%v,%v) disagree with Eval (%v,%v)",
				name, v.OutA, v.OutB, a, b)
		}
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a := aig.New("a")
	x := a.AddPI("x")
	a.AddPO(x, "y")
	b := aig.New("b")
	x0 := b.AddPI("x0")
	x1 := b.AddPI("x1")
	b.AddPO(b.And(x0, x1), "y")
	v := cec.Check(ctx, a, b, cec.Options{})
	if v.Status != cec.NotEqual || v.Reason == "" {
		t.Errorf("PI mismatch: %v reason=%q", v.Status, v.Reason)
	}
}

func TestComplementedOutput(t *testing.T) {
	a := aig.New("a")
	x := a.AddPI("x")
	a.AddPO(x, "y")
	b := aig.New("b")
	xb := b.AddPI("x")
	b.AddPO(xb.Not(), "y")
	v := cec.Check(ctx, a, b, cec.Options{})
	if v.Status != cec.NotEqual {
		t.Fatalf("inverter not caught: %v", v.Status)
	}
	if got := a.Eval(v.Counterexample)[0]; got == b.Eval(v.Counterexample)[0] {
		t.Error("counterexample does not distinguish")
	}
}

// TestNameAlignment: same function, primary inputs listed in a different
// order but with matching names, must be paired by name.
func TestNameAlignment(t *testing.T) {
	a := aig.New("a")
	p := a.AddPI("p")
	q := a.AddPI("q")
	a.AddPO(a.And(p, q.Not()), "y")
	b := aig.New("b")
	qb := b.AddPI("q")
	pb := b.AddPI("p")
	b.AddPO(b.And(pb, qb.Not()), "y")
	v := cec.Check(ctx, a, b, cec.Options{})
	if v.Status != cec.Equal {
		t.Errorf("name-aligned check failed: %v (cex %s)", v.Status, v.CexString())
	}
}

// TestConstantOutputs: circuits whose outputs collapse to constants.
func TestConstantOutputs(t *testing.T) {
	a := aig.New("a")
	x := a.AddPI("x")
	a.AddPO(a.And(x, x.Not()), "zero") // structurally False
	b := aig.New("b")
	b.AddPI("x")
	b.AddPO(aig.False, "zero")
	v := cec.Check(ctx, a, b, cec.Options{})
	if v.Status != cec.Equal {
		t.Errorf("constant outputs: %v", v.Status)
	}
}

// TestDuplicateOutputNamesCounterexample: with repeated output names the
// outputs pair positionally, and the verdict's output values must come from
// the failing position, not from the first output carrying its name.
func TestDuplicateOutputNamesCounterexample(t *testing.T) {
	a := aig.New("a")
	xa, ya := a.AddPI("x"), a.AddPI("y")
	a.AddPO(a.And(xa, ya), "o")
	a.AddPO(a.Or(xa, ya), "o")
	b := aig.New("b")
	xb, yb := b.AddPI("x"), b.AddPI("y")
	b.AddPO(b.And(xb, yb), "o")
	b.AddPO(b.Xor(xb, yb), "o")
	v := cec.Check(ctx, a, b, cec.Options{})
	if v.Status != cec.NotEqual || v.Counterexample == nil {
		t.Fatalf("x|y vs x^y not caught: %v", v.Status)
	}
	const failing = 1 // output 0 is x&y on both sides
	wantA, wantB := a.Eval(v.Counterexample)[failing], b.Eval(v.Counterexample)[failing]
	if v.OutA == v.OutB || v.OutA != wantA || v.OutB != wantB {
		t.Errorf("cex %s: verdict values (%v,%v), Eval at output %d gives (%v,%v)",
			v.CexString(), v.OutA, v.OutB, failing, wantA, wantB)
	}
}

// exhaustivelyEqual evaluates a and b on all 2^n inputs.
func exhaustivelyEqual(a, b *aig.AIG) bool {
	p, _ := firstDifference(a, b)
	return p < 0
}

// firstDifference evaluates a and b on every input pattern in order, input
// i taking bit i of the pattern, and returns the first pattern on which
// they differ and the lowest output that differs on it, or -1, -1.
func firstDifference(a, b *aig.AIG) (pattern, output int) {
	in := make([]bool, a.NumPIs())
	for x := 0; x < 1<<len(in); x++ {
		for i := range in {
			in[i] = x>>i&1 != 0
		}
		oa, ob := a.Eval(in), b.Eval(in)
		for o := range oa {
			if oa[o] != ob[o] {
				return x, o
			}
		}
	}
	return -1, -1
}

// TestRandomAIGsAgreeWithExhaustiveEval is the property test of the whole
// sweep engine (SweepCheck: Check would decide these by exhaustive
// simulation), local proofs included: on seeded random circuits of at most
// ten inputs, each checked against its optimized copy and against a mutant with
// one AND-input polarity flipped, the verdict must match exhaustive
// simulation, and every counterexample must replay through aig.Eval.
func TestRandomAIGsAgreeWithExhaustiveEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	local := 0
	for trial := 0; trial < 150; trial++ {
		nPI := 2 + rng.Intn(9)
		g := cec.RandomAIG(rng, nPI, 10+rng.Intn(60), 1+rng.Intn(4))
		if g.NumNodes() == 0 {
			continue
		}
		target := g.NumPIs() + 1 + rng.Intn(g.NumNodes())
		for _, other := range []*aig.AIG{optimize(g), mutate(g, target)} {
			v := cec.SweepCheck(ctx, g, other, cec.Options{Seed: int64(trial + 1)})
			local += v.Stats.LocalMerges
			equal := exhaustivelyEqual(g, other)
			switch {
			case equal && v.Status != cec.Equal:
				t.Fatalf("trial %d (%s): %v, but all 2^%d inputs agree", trial, other.Name, v.Status, nPI)
			case !equal && v.Status != cec.NotEqual:
				t.Fatalf("trial %d (%s): %v, but the circuits differ", trial, other.Name, v.Status)
			case !equal:
				o := -1
				for i := 0; i < g.NumPOs(); i++ {
					if g.POName(i) == v.FailingOutput {
						o = i
					}
				}
				if o < 0 || v.Counterexample == nil {
					t.Fatalf("trial %d: NOT-EQUAL without a usable counterexample: %+v", trial, v)
				}
				a, b := g.Eval(v.Counterexample)[o], other.Eval(v.Counterexample)[o]
				if a == b || v.OutA != a || v.OutB != b {
					t.Fatalf("trial %d: cex %s gives (%v,%v) at %s, verdict says (%v,%v)",
						trial, v.CexString(), a, b, v.FailingOutput, v.OutA, v.OutB)
				}
			}
		}
	}
	if local == 0 {
		t.Error("no candidate merge closed by a local proof: the fast path went untested")
	}
}
