package cec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aig"
)

// andAll conjoins lits as a balanced tree.
func andAll(g *aig.AIG, lits []aig.Lit) aig.Lit {
	if len(lits) == 1 {
		return lits[0]
	}
	h := len(lits) / 2
	return g.And(andAll(g, lits[:h]), andAll(g, lits[h:]))
}

func TestCutProofReassociation(t *testing.T) {
	g := aig.New("g")
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

	// Through Check, the pair closes locally: no SAT query at all.
	ga, gb := aig.New("a"), aig.New("b")
	pa := []aig.Lit{ga.AddPI("a"), ga.AddPI("b"), ga.AddPI("c")}
	pb := []aig.Lit{gb.AddPI("a"), gb.AddPI("b"), gb.AddPI("c")}
	ga.AddPO(ga.And(pa[0], ga.And(pa[1], pa[2])), "y")
	gb.AddPO(gb.And(gb.And(pb[0], pb[1]), pb[2]), "y")
	v := Check(context.Background(), ga, gb, Options{})
	if v.Status != Equal || v.Stats.LocalMerges != 1 || v.Stats.SATCalls != 0 {
		t.Errorf("reassociation: %v, stats %+v; want EQUAL with one local merge and no SAT", v.Status, v.Stats)
	}
}

// TestCutProofDeclinesCorrelatedLeaves: x = L1 & L2 equals y = L1 only
// because L1 (the product of p0..p11) implies L2 (the product of p0..p5).
// L1 pairs every p0..p5 with one of p6..p11, so none of its nodes computes a
// product of p0..p5 alone: exposing L1 => L2 takes a cut of at least seven
// leaves (p0..p5 and a cover of p6..p11). The local proof must decline, and
// the verdict must still be EQUAL, by SAT.
func TestCutProofDeclinesCorrelatedLeaves(t *testing.T) {
	build := func(name string, withL2 bool) (g *aig.AIG, out, l1 aig.Lit) {
		g = aig.New(name)
		p := make([]aig.Lit, 12)
		for i := range p {
			p[i] = g.AddPI(string(rune('a' + i)))
		}
		l1 = andAll(g, []aig.Lit{p[0], p[6], p[1], p[7], p[2], p[8], p[3], p[9], p[4], p[10], p[5], p[11]})
		out = l1
		if withL2 {
			out = g.And(l1, andAll(g, p[:6]))
		}
		g.AddPO(out, "y")
		return g, out, l1
	}
	ga, x, l1 := build("a", true)
	if (&cutProver{g: ga}).equal(x, l1) {
		t.Fatal("local proof claimed L1&L2 == L1 on a cut that hides L1 => L2")
	}

	gb, _, _ := build("b", false)
	v := Check(context.Background(), ga, gb, Options{})
	if v.Status != Equal {
		t.Fatalf("L1&L2 vs L1: %v (cex %s), want EQUAL", v.Status, v.CexString())
	}
	if v.Stats.SATCalls == 0 {
		t.Errorf("L1&L2 vs L1 proven without SAT: %+v", v.Stats)
	}
}

// RandomAIG builds a seeded random AIG over nPI inputs whose AND fanins
// lean toward recent nodes, so the graph has depth and reconvergence. It is
// exported for the black-box tests of this package.
func RandomAIG(rng *rand.Rand, nPI, nAnd, nPO int) *aig.AIG {
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(fmt.Sprintf("i%d", i)))
	}
	pick := func() aig.Lit {
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
		g := RandomAIG(rng, nPI, 20+rng.Intn(50), 1)
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
			mask = aig.Truth6Mask(nPI)
		}
		cp := cutProver{g: g}
		for u := nPI + 1; u < g.NumVars(); u++ {
			for v := nPI + 1; v < u; v++ {
				for _, compl := range []bool{false, true} {
					if !cp.equal(aig.MakeLit(u, false), aig.MakeLit(v, compl)) {
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
								trial, u, aig.MakeLit(v, compl))
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
