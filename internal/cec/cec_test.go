package cec_test

import (
	"context"
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
		Resub(aig.DefaultResubOptions()).
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
