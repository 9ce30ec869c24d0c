package cec

import (
	"context"
	"testing"

	"repro/internal/aig"
)

// andNot builds o = x & !y over PIs declared in the given order.
func andNot(name string, order ...string) *aig.AIG {
	g := aig.New(name)
	pis := map[string]aig.Lit{}
	for _, n := range order {
		pis[n] = g.AddPI(n)
	}
	g.AddPO(g.And(pis["x"], pis["y"].Not()), "o")
	return g
}

// TestReplayRejectsNonDistinguishingCex: a NOT-EQUAL verdict stands only
// if its counterexample makes the two circuits disagree when replayed; one
// on which they agree turns the verdict into UNDECIDED with a Reason.
func TestReplayRejectsNonDistinguishingCex(t *testing.T) {
	a := andNot("a", "x", "y")
	b := andNot("b", "y", "x") // same function, inputs declared the other way
	piPerm := matchNames(piNames(a), piNames(b))
	if piPerm == nil {
		t.Fatal("b's inputs should pair with a's by name")
	}
	for _, tc := range []struct {
		name   string
		b      *aig.AIG
		perm   []int
		want   Status
		outA   bool
		outB   bool
		reason bool
	}{
		// x=1 y=0 gives 1 on both sides once b reads its own input order.
		{"equal circuits", b, piPerm, Undecided, true, true, true},
		// b with !x & y disagrees on the same vector: the cex is genuine.
		{"distinct circuits", func() *aig.AIG {
			g := aig.New("c")
			x, y := g.AddPI("x"), g.AddPI("y")
			g.AddPO(g.And(x.Not(), y), "o")
			return g
		}(), nil, NotEqual, true, false, false},
	} {
		v := &Verdict{Status: NotEqual, FailingOutput: "o", Counterexample: []bool{true, false}}
		v.replay(a, tc.b, tc.perm, nil)
		if v.Status != tc.want || v.OutA != tc.outA || v.OutB != tc.outB || (v.Reason != "") != tc.reason {
			t.Errorf("%s: %v OutA=%v OutB=%v reason %q, want %v OutA=%v OutB=%v", tc.name,
				v.Status, v.OutA, v.OutB, v.Reason, tc.want, tc.outA, tc.outB)
		}
		if tc.want == Undecided && (len(v.UndecidedOutputs) != 1 || v.UndecidedOutputs[0] != "o") {
			t.Errorf("%s: undecided outputs %v, want [o]", tc.name, v.UndecidedOutputs)
		}
	}
}

// TestVerdictPairing: a NOT-EQUAL verdict names each side's own view of
// its counterexample, whether the check paired the ports by name (b
// declares its inputs and outputs in another order) or by position (b's
// names differ, as a written netlist's bus names do), so another engine
// replays the same ports.
func TestVerdictPairing(t *testing.T) {
	a := aig.New("a")
	x, y := a.AddPI("x"), a.AddPI("y")
	a.AddPO(a.And(x, y), "o[0]")
	a.AddPO(a.And(x, y.Not()), "o[1]")
	named := aig.New("named")
	ny, nx := named.AddPI("y"), named.AddPI("x")
	named.AddPO(named.And(nx, ny), "o[1]") // a's o[1] is x&!y: differs
	named.AddPO(named.And(nx, ny), "o[0]")
	positional := aig.New("positional")
	px, py := positional.AddPI("x_"), positional.AddPI("y_")
	positional.AddPO(positional.And(px, py), "o_0_")
	positional.AddPO(positional.Or(px, py), "o_1_") // differs from x&!y
	for _, tc := range []struct {
		b       *aig.AIG
		outputB int
	}{{named, 0}, {positional, 1}} {
		v := Check(context.Background(), a, tc.b, Options{})
		if v.Status != NotEqual || v.FailingOutput != "o[1]" || v.OutputA != 1 || v.OutputB != tc.outputB {
			t.Fatalf("%s: %v on %s (a output %d, b output %d), want NOT-EQUAL on o[1] (1, %d)",
				tc.b.Name, v.Status, v.FailingOutput, v.OutputA, v.OutputB, tc.outputB)
		}
		if a.Eval(v.Counterexample)[v.OutputA] != v.OutA || tc.b.Eval(v.CexB)[v.OutputB] != v.OutB || v.OutA == v.OutB {
			t.Errorf("%s: the sides' own vectors and outputs do not reproduce OutA=%v OutB=%v", tc.b.Name, v.OutA, v.OutB)
		}
	}
}
