package aig

import (
	"fmt"
	"math/rand"
	"testing"
)

// andAll conjoins lits as a balanced tree.
func andAll(g *AIG, lits []Lit) Lit {
	if len(lits) == 1 {
		return lits[0]
	}
	h := len(lits) / 2
	return g.And(andAll(g, lits[:h]), andAll(g, lits[h:]))
}

func TestCutProofReassociation(t *testing.T) {
	g := New("g")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, g.And(b, c))
	y := g.And(g.And(a, b), c)
	cp := cutProver{g: g}
	if !cp.equal(x, y) {
		t.Error("a&(b&c) vs (a&b)&c: not proven on the cut {a,b,c}")
	}
	if cp.equal(x, y.Not()) {
		t.Error("a&(b&c) proven equal to !((a&b)&c)")
	}
	z := g.And(g.And(a, b), c.Not())
	if cp.equal(x, z) {
		t.Error("a&(b&c) proven equal to (a&b)&!c")
	}
	if n := testing.AllocsPerRun(100, func() { cp.equal(x, y); cp.equal(x, z) }); n != 0 {
		t.Errorf("local proof allocates %v times per call pair, want 0", n)
	}

	// Through the sweep, the pair closes locally: no SAT query at all.
	g.AddPO(x, "x")
	g.AddPO(y, "y")
	s := NewSweeper(g, 1)
	s.Run(nil)
	if s.Lift(x) != s.Lift(y) || s.Stats.LocalMerges != 1 || s.Stats.SATCalls != 0 {
		t.Errorf("reassociation: stats %+v; want one local merge and no SAT", s.Stats)
	}
}

// TestCutProofDeclinesCorrelatedLeaves: x = L1 & L2 equals y = L1 only
// because L1 (the product of p0..p11) implies L2 (the product of p0..p5).
// L1 pairs every p0..p5 with one of p6..p11, so none of its nodes computes a
// product of p0..p5 alone: exposing L1 => L2 takes a cut of at least seven
// leaves (p0..p5 and a cover of p6..p11). The local proof must decline, and
// the sweep must still merge the pair, by SAT.
func TestCutProofDeclinesCorrelatedLeaves(t *testing.T) {
	g := New("corr")
	p := make([]Lit, 12)
	for i := range p {
		p[i] = g.AddPI(string(rune('a' + i)))
	}
	l1 := andAll(g, []Lit{p[0], p[6], p[1], p[7], p[2], p[8], p[3], p[9], p[4], p[10], p[5], p[11]})
	x := g.And(l1, andAll(g, p[:6]))
	if (&cutProver{g: g}).equal(x, l1) {
		t.Fatal("local proof claimed L1&L2 == L1 on a cut that hides L1 => L2")
	}

	g.AddPO(x, "x")
	g.AddPO(l1, "l1")
	s := NewSweeper(g, 1)
	s.Run(nil)
	if s.Lift(x) != s.Lift(l1) {
		t.Fatalf("L1&L2 and L1 not merged: %+v", s.Stats)
	}
	if s.Stats.SATMerges == 0 {
		t.Errorf("L1&L2 and L1 merged without SAT: %+v", s.Stats)
	}
}

// deepRandomAIG builds a seeded random AIG over nPI inputs whose AND fanins
// lean toward recent nodes, so the graph has depth and reconvergence.
func deepRandomAIG(rng *rand.Rand, nPI, nAnd, nPO int) *AIG {
	g := New("rand")
	var lits []Lit
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(fmt.Sprintf("i%d", i)))
	}
	pick := func() Lit {
		k := len(lits) - 1 - rng.Intn(min(len(lits), 12))
		if rng.Intn(4) == 0 {
			k = rng.Intn(len(lits))
		}
		return lits[k].NotIf(rng.Intn(2) == 0)
	}
	for k := 0; k < nAnd; k++ {
		if l := g.And(pick(), pick()); l.Var() > 0 {
			lits = append(lits, l.Reg())
		}
	}
	for o := 0; o < nPO; o++ {
		g.AddPO(pick(), fmt.Sprintf("o%d", o))
	}
	return g
}

// TestCutProofSoundOnRandomPairs asks the local proof about every pair of
// AND nodes (in both phases) of seeded random AIGs with at most ten inputs,
// most of them not equivalent, and checks every claimed proof against
// exhaustive simulation of all 2^n input patterns.
func TestCutProofSoundOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	claims := 0
	for trial := 0; trial < 60; trial++ {
		nPI := 2 + rng.Intn(9)
		g := deepRandomAIG(rng, nPI, 20+rng.Intn(50), 1)
		// Exhaustive signatures: pattern p sets input i to bit i of p.
		words := (1<<nPI + 63) / 64
		sig := make([][]uint64, words)
		in := make([]uint64, nPI)
		for w := range sig {
			for i := range in {
				in[i] = 0
				for b := 0; b < 64; b++ {
					if (64*w+b)>>i&1 != 0 {
						in[i] |= 1 << b
					}
				}
			}
			sig[w] = g.SimWords(in)
		}
		mask := ^uint64(0)
		if nPI < 6 {
			mask = Truth6Mask(nPI)
		}
		cp := cutProver{g: g}
		for u := nPI + 1; u < g.NumVars(); u++ {
			for v := nPI + 1; v < u; v++ {
				for _, compl := range []bool{false, true} {
					if !cp.equal(MakeLit(u, false), MakeLit(v, compl)) {
						continue
					}
					claims++
					for w := range sig {
						d := sig[w][u] ^ sig[w][v]
						if compl {
							d = ^d
						}
						if d&mask != 0 {
							t.Fatalf("trial %d: local proof claims var %d == literal %d, exhaustive simulation disagrees",
								trial, u, MakeLit(v, compl))
						}
					}
				}
			}
		}
	}
	if claims == 0 {
		t.Error("no pair proven locally: the soundness check saw no claim")
	}
}
