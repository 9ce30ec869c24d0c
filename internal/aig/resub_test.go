package aig

import (
	"bytes"
	"math/rand"
	"testing"
)

// exhaustiveOutputs evaluates every output of g on all 2^n input patterns;
// out[p] lists the output values under pattern p (input i = bit i of p).
func exhaustiveOutputs(g *AIG) [][]bool {
	n := g.NumPIs()
	out := make([][]bool, 1<<n)
	in := make([]bool, n)
	for p := range out {
		for i := range in {
			in[i] = p>>i&1 != 0
		}
		out[p] = g.Eval(in)
	}
	return out
}

func aigerBytes(t *testing.T, g *AIG) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteAIGER(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResubMatchesExhaustiveEval: on seeded random AIGs of at most ten
// inputs, Resub keeps every output's value on every input pattern, never
// adds nodes, and returns the same bytes when run twice. Each graph also
// drives three outputs with minterms of all its inputs: one true pattern
// in up to 1,024, which the sweep's 512 random patterns often miss, so
// they simulate like the constant and SAT must refute the pair. Many
// merges are complemented. Merging a refuted pair or dropping a merge's
// phase therefore shows up as a wrong output.
func TestResubMatchesExhaustiveEval(t *testing.T) {
	merged := 0
	for seed := int64(1); seed <= 60; seed++ {
		nPI := 4 + int(seed%7)
		g := randomAIG(seed, nPI, 40+int(seed%5)*30, 6)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 3; k++ {
			m := True
			for i := 0; i < nPI; i++ {
				m = g.And(m, g.PI(i).NotIf(rng.Intn(2) == 0))
			}
			g.AddPO(m, pinName(200+k))
		}
		r := g.Resub(1)
		if r.NumNodes() > g.NumNodes() {
			t.Errorf("seed %d: %d nodes -> %d", seed, g.NumNodes(), r.NumNodes())
		}
		merged += g.NumNodes() - r.NumNodes()
		want, got := exhaustiveOutputs(g), exhaustiveOutputs(r)
		for p := range want {
			for o := range want[p] {
				if want[p][o] != got[p][o] {
					t.Fatalf("seed %d (%d inputs): output %d differs on pattern %#x", seed, nPI, o, p)
				}
			}
		}
		if again := g.Resub(1); !bytes.Equal(aigerBytes(t, r), aigerBytes(t, again)) {
			t.Errorf("seed %d: two Resub runs differ", seed)
		}
	}
	if merged == 0 {
		t.Error("Resub merged nothing: the property check saw no merge")
	}
}

// TestResubCollapsesDistributedPair: a&(b|c) and (a&b)|(a&c), both driving
// outputs, become one node (a complemented merge, since the OR is an
// inverted AND), and the result is the two-node a&(b|c).
func TestResubCollapsesDistributedPair(t *testing.T) {
	g := New("dist")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	or := func(x, y Lit) Lit { return g.And(x.Not(), y.Not()).Not() }
	g.AddPO(g.And(a, or(b, c)), "x")
	g.AddPO(or(g.And(a, b), g.And(a, c)), "y")
	r := g.Resub(1)
	if r.PO(0) != r.PO(1) || r.NumNodes() != 2 {
		t.Errorf("outputs %v and %v over %d nodes, want one literal over 2 nodes", r.PO(0), r.PO(1), r.NumNodes())
	}
	want, got := exhaustiveOutputs(g), exhaustiveOutputs(r)
	for p := range want {
		if want[p][0] != got[p][0] || want[p][1] != got[p][1] {
			t.Fatalf("pattern %#x: outputs %v, want %v", p, got[p], want[p])
		}
	}
}
