package cec

import (
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
