package aig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// Equivalent checks combinational equivalence of two AIGs with identical PI
// and PO counts, returning (equivalent, proven). It builds a joint miter
// over shared inputs and proves it output by output, each on a fresh
// solver under the per-output conflict budget. It is the plain oracle this
// package's tests use; the simulation-guided SAT-sweeping checker lives in
// internal/cec.
func Equivalent(a, b *AIG, budget int64) (bool, bool) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, true
	}
	m := New("miter")
	pis := make([]Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI(a.PIName(i))
	}
	la := CopyInto(a, m, pis)
	lb := CopyInto(b, m, pis)
	for i := range la {
		switch res, _ := NewCNFBuilder(m, sat.New(0)).Prove(la[i], lb[i], budget); res {
		case Undecided:
			return false, false
		case Refuted:
			return false, true
		}
	}
	return true, true
}

func TestAndSimplifications(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	if g.And(a, False) != False {
		t.Error("a & 0 != 0")
	}
	if g.And(a, True) != a {
		t.Error("a & 1 != a")
	}
	if g.And(a, a) != a {
		t.Error("a & a != a")
	}
	if g.And(a, a.Not()) != False {
		t.Error("a & !a != 0")
	}
	x := g.And(a, b)
	y := g.And(b, a)
	if x != y {
		t.Error("strash failed to merge commuted AND")
	}
	if g.NumNodes() != 1 {
		t.Errorf("nodes = %d, want 1", g.NumNodes())
	}
}

func TestEvalGates(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	g.AddPO(g.And(a, b), "and")
	g.AddPO(g.Or(a, b), "or")
	g.AddPO(g.Xor(a, b), "xor")
	g.AddPO(g.Mux(c, a, b), "mux")
	for idx := 0; idx < 8; idx++ {
		in := []bool{idx&1 != 0, idx&2 != 0, idx&4 != 0}
		out := g.Eval(in)
		if out[0] != (in[0] && in[1]) {
			t.Errorf("and(%v) = %v", in, out[0])
		}
		if out[1] != (in[0] || in[1]) {
			t.Errorf("or(%v) = %v", in, out[1])
		}
		if out[2] != (in[0] != in[1]) {
			t.Errorf("xor(%v) = %v", in, out[2])
		}
		want := in[1]
		if !in[2] {
			want = in[0]
		}
		// Mux(s,t,e): s ? t : e with s=c, t=a, e=b.
		wantMux := in[0]
		if !in[2] {
			wantMux = in[1]
		}
		_ = want
		if out[3] != wantMux {
			t.Errorf("mux(%v) = %v, want %v", in, out[3], wantMux)
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	if g.Level(x.Var()) != 1 || g.Level(y.Var()) != 2 {
		t.Errorf("levels: %d %d", g.Level(x.Var()), g.Level(y.Var()))
	}
	if g.Depth() != 2 {
		t.Errorf("depth = %d", g.Depth())
	}
}

func TestSweepRemovesDangling(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	keep := g.And(a, b)
	g.And(a, b.Not()) // dangling
	g.AddPO(keep, "y")
	if g.NumNodes() != 2 {
		t.Fatalf("pre-sweep nodes = %d", g.NumNodes())
	}
	s := g.Sweep()
	if s.NumNodes() != 1 {
		t.Errorf("post-sweep nodes = %d, want 1", s.NumNodes())
	}
	if eq, proven := Equivalent(g, s, 1000); !eq || !proven {
		t.Error("sweep changed function")
	}
}

// randomAIG builds a deterministic random DAG for property tests.
func randomAIG(seed int64, nPI, nNodes, nPO int) *AIG {
	rng := rand.New(rand.NewSource(seed))
	g := New("rand")
	lits := make([]Lit, 0, nPI+nNodes)
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(pinName(i)))
	}
	for i := 0; i < nNodes; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPO; i++ {
		g.AddPO(lits[len(lits)-1-i%len(lits)].NotIf(rng.Intn(2) == 0), pinName(100+i))
	}
	return g
}

func pinName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestSimWordsMatchesEval(t *testing.T) {
	g := randomAIG(3, 5, 40, 4)
	f := func(pattern uint8) bool {
		in := make([]bool, 5)
		words := make([]uint64, 5)
		for i := range in {
			in[i] = pattern&(1<<uint(i)) != 0
			if in[i] {
				words[i] = ^uint64(0)
			}
		}
		want := g.Eval(in)
		vals := g.SimWords(words)
		for i := 0; i < g.NumPOs(); i++ {
			if (EvalLit(vals, g.PO(i))&1 != 0) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

// TestSimWordsIntoReusesDst: a dirty, reused buffer gives what a fresh
// SimWords gives, including the constant at variable 0, without allocating.
func TestSimWordsIntoReusesDst(t *testing.T) {
	g := randomAIG(4, 7, 60, 3)
	rng := rand.New(rand.NewSource(5))
	dst := make([]uint64, g.NumVars())
	in := make([]uint64, g.NumPIs())
	for round := 0; round < 8; round++ {
		for i := range dst {
			dst[i] = rng.Uint64()
		}
		for i := range in {
			in[i] = rng.Uint64()
		}
		want := g.SimWords(in)
		got := g.SimWordsInto(dst, in)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: var %d: SimWordsInto %#x, SimWords %#x", round, v, got[v], want[v])
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { g.SimWordsInto(dst, in) }); n != 0 {
		t.Errorf("SimWordsInto allocates %v times per call, want 0", n)
	}
}

func TestProbabilities(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	and := g.And(a, b)
	or := g.Or(a, b)
	p := g.Probabilities()
	if p[and.Var()] != 0.25 {
		t.Errorf("P(and) = %v", p[and.Var()])
	}
	// or is stored complemented: node is !a&!b with p=0.25.
	if p[or.Var()] != 0.25 {
		t.Errorf("P(or-node) = %v", p[or.Var()])
	}
	act := g.Activities()
	if act[and.Var()] != 2*0.25*0.75 {
		t.Errorf("activity = %v", act[and.Var()])
	}
}

func TestTruthHelpers(t *testing.T) {
	// support of x0 & x2 over 3 vars
	tt := truth6Masks[0] & truth6Masks[2] & Truth6Mask(3)
	if s := TruthSupport(tt, 3); s != 0b101 {
		t.Errorf("support = %b", s)
	}
	// flip and swap sanity
	x := truth6Masks[0] & Truth6Mask(2)
	if truthFlip(x, 0) != (^truth6Masks[0])&Truth6Mask(2) {
		t.Error("truthFlip broken")
	}
	if truthSwapAdjacent(x, 0)&Truth6Mask(2) != truth6Masks[1]&Truth6Mask(2) {
		t.Error("truthSwapAdjacent broken")
	}
}

func TestISOPRoundTrip(t *testing.T) {
	f := func(raw uint16, nRaw uint8) bool {
		n := 2 + int(nRaw)%3 // 2..4 vars
		tt := uint64(raw) & Truth6Mask(n)
		cubes := ISOP(tt, tt, n)
		return CoverTruth(cubes, n) == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestISOPWithDontCares(t *testing.T) {
	f := func(onRaw, dcRaw uint16) bool {
		n := 4
		on := uint64(onRaw) & Truth6Mask(n)
		dc := uint64(dcRaw) & Truth6Mask(n) &^ on
		cubes := ISOP(on, on|dc, n)
		got := CoverTruth(cubes, n)
		// Must cover onset and stay within onset|dc.
		return on&^got == 0 && got&^(on|dc) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCanonPPInvariance(t *testing.T) {
	// Canonical form must be invariant under input permutation and output
	// complementation.
	f := func(raw uint16, permSeed uint8, negOut bool) bool {
		n := 3
		tt := uint64(raw) & Truth6Mask(n)
		canon1, _, _ := CanonPP(tt, n)
		// Apply a random adjacent-swap sequence and optional output negation.
		tt2 := tt
		s := permSeed
		for k := 0; k < 4; k++ {
			tt2 = truthSwapAdjacent(tt2, int(s)%(n-1))
			s = s*7 + 3
		}
		if negOut {
			tt2 = ^tt2 & Truth6Mask(n)
		}
		canon2, _, _ := CanonPP(tt2, n)
		return canon1 == canon2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuildFromCubesMatchesTruth(t *testing.T) {
	f := func(raw uint16) bool {
		n := 4
		tt := uint64(raw) & Truth6Mask(n)
		g := New("t")
		leaves := make([]Lit, n)
		for i := range leaves {
			leaves[i] = g.AddPI(pinName(i))
		}
		cubes := ISOP(tt, tt, n)
		built := g.BuildFromCubes(cubes, leaves)
		g.AddPO(built, "y")
		factored := New("f")
		leaves2 := make([]Lit, n)
		for i := range leaves2 {
			leaves2[i] = factored.AddPI(pinName(i))
		}
		factored.AddPO(factored.buildFactored(cubes, leaves2), "y")
		for idx := 0; idx < 16; idx++ {
			in := []bool{idx&1 != 0, idx&2 != 0, idx&4 != 0, idx&8 != 0}
			want := tt&(1<<uint(idx)) != 0
			if g.Eval(in)[0] != want || factored.Eval(in)[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateCutsBasic(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	cuts := g.EnumerateCuts(4, 8)
	// y must have a cut {a,b,c} and the trivial cut {y}.
	foundABC, foundTrivial := false, false
	for _, cut := range cuts[y.Var()] {
		if len(cut.Leaves) == 3 && cut.Leaves[0] == a.Var() && cut.Leaves[1] == b.Var() && cut.Leaves[2] == c.Var() {
			foundABC = true
		}
		if len(cut.Leaves) == 1 && cut.Leaves[0] == y.Var() {
			foundTrivial = true
		}
	}
	if !foundABC || !foundTrivial {
		t.Errorf("cuts of y: %+v", cuts[y.Var()])
	}
}

func TestMFFCSize(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	refs := g.FanoutCounts()
	// MFFC of y over {a,b,c}: both x and y are exclusively in y's cone.
	if got := g.MFFCSize(y.Var(), []int{a.Var(), b.Var(), c.Var()}, refs); got != 2 {
		t.Errorf("MFFC = %d, want 2", got)
	}
	// With x also feeding a PO, x leaves the MFFC.
	g2 := New("t")
	a2 := g2.AddPI("a")
	b2 := g2.AddPI("b")
	c2 := g2.AddPI("c")
	x2 := g2.And(a2, b2)
	y2 := g2.And(x2, c2)
	g2.AddPO(y2, "y")
	g2.AddPO(x2, "x")
	refs2 := g2.FanoutCounts()
	if got := g2.MFFCSize(y2.Var(), []int{a2.Var(), b2.Var(), c2.Var()}, refs2); got != 1 {
		t.Errorf("MFFC with shared x = %d, want 1", got)
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	g1 := New("a")
	a := g1.AddPI("a")
	b := g1.AddPI("b")
	g1.AddPO(g1.And(a, b), "y")
	g2 := New("b")
	a2 := g2.AddPI("a")
	b2 := g2.AddPI("b")
	g2.AddPO(g2.Or(a2, b2), "y")
	eq, proven := Equivalent(g1, g2, 10000)
	if !proven || eq {
		t.Errorf("AND vs OR: eq=%v proven=%v", eq, proven)
	}
	g3 := New("c")
	a3 := g3.AddPI("a")
	b3 := g3.AddPI("b")
	g3.AddPO(g3.Or(b3, a3), "y")
	eq, proven = Equivalent(g2, g3, 10000)
	if !proven || !eq {
		t.Errorf("OR vs OR: eq=%v proven=%v", eq, proven)
	}
}

func checkPass(t *testing.T, name string, pass func(*AIG) *AIG, allowGrowth bool) {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		g := randomAIG(seed, 6, 60, 5)
		opt := pass(g)
		eq, proven := Equivalent(g, opt, 50000)
		if !proven {
			t.Errorf("%s seed %d: equivalence not proven", name, seed)
			continue
		}
		if !eq {
			t.Fatalf("%s seed %d: NOT EQUIVALENT (pass is unsound)", name, seed)
		}
		if !allowGrowth && opt.NumNodes() > g.NumNodes() {
			t.Errorf("%s seed %d: size grew %d -> %d", name, seed, g.NumNodes(), opt.NumNodes())
		}
	}
}

func TestBalancePreservesFunction(t *testing.T) {
	checkPass(t, "balance", func(g *AIG) *AIG { return g.Balance() }, true)
}

func TestBalanceReducesChainDepth(t *testing.T) {
	g := New("chain")
	lits := make([]Lit, 16)
	for i := range lits {
		lits[i] = g.AddPI(pinName(i))
	}
	acc := lits[0]
	for i := 1; i < len(lits); i++ {
		acc = g.And(acc, lits[i])
	}
	g.AddPO(acc, "y")
	bal := g.Balance()
	if bal.Depth() != 4 {
		t.Errorf("balanced 16-AND chain depth = %d, want 4", bal.Depth())
	}
	if eq, proven := Equivalent(g, bal, 10000); !eq || !proven {
		t.Error("balance broke the chain function")
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	checkPass(t, "rewrite", func(g *AIG) *AIG { return g.Rewrite(false) }, false)
}

func TestRefactorPreservesFunction(t *testing.T) {
	checkPass(t, "refactor", func(g *AIG) *AIG { return g.Refactor() }, false)
}

func TestResubPreservesFunction(t *testing.T) {
	checkPass(t, "resub", func(g *AIG) *AIG { return g.Resub(1) }, false)
}

func TestResubMergesDuplicates(t *testing.T) {
	// Build two structurally different but equivalent cones; resub (SAT
	// sweeping) must merge them.
	g := New("dup")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(g.And(a, b), c)
	y := g.And(a, g.And(b, c))
	g.AddPO(x, "x")
	g.AddPO(y, "y")
	r := g.Resub(1)
	if r.NumNodes() > 2 {
		t.Errorf("resub left %d nodes, want 2 (merged chains)", r.NumNodes())
	}
	if eq, proven := Equivalent(g, r, 10000); !eq || !proven {
		t.Error("resub broke function")
	}
}

// The LUT tests draw graphs of 10 inputs, so 6-input LUTs cannot cover an
// output's whole cone.
func TestMapLUTAndStrashRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomAIG(seed, 10, 80, 5)
		net := g.MapLUT()
		if net.NumLUTs() == 0 || net.NumLUTs() > g.NumNodes() {
			t.Errorf("seed %d: LUT count %d vs %d nodes", seed, net.NumLUTs(), g.NumNodes())
		}
		back := net.Strash()
		eq, proven := Equivalent(g, back, 50000)
		if !proven || !eq {
			t.Fatalf("seed %d: LUT round trip eq=%v proven=%v", seed, eq, proven)
		}
	}
}

func TestMfsPreservesGlobalFunction(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomAIG(seed, 10, 80, 5)
		for _, mfsSeed := range []int64{7, 8} {
			net := g.MapLUT()
			net.Mfs(mfsSeed)
			back := net.Strash()
			eq, proven := Equivalent(g, back, 50000)
			if !proven {
				t.Errorf("seed %d: mfs equivalence not proven", seed)
				continue
			}
			if !eq {
				t.Fatalf("seed %d mfs seed %d: mfs BROKE the circuit", seed, mfsSeed)
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := randomAIG(1, 4, 20, 2)
	c := g.Clone()
	a := c.PI(0)
	b := c.PI(1)
	c.AddPO(c.And(a, b), "extra")
	if g.NumPOs() == c.NumPOs() {
		t.Error("clone shares PO storage")
	}
	if eq, _ := Equivalent(g, g.Clone(), 10000); !eq {
		t.Error("clone not equivalent to original")
	}
}

func TestQuickCutsAreValidCuts(t *testing.T) {
	// Every enumerated cut must be a real cut: the truth table the cut
	// carries over its leaves must reproduce node behavior on random
	// simulation.
	f := func(seed int64) bool {
		g := randomAIG(seed, 5, 30, 3)
		cuts := g.EnumerateCuts(4, 6)
		words := make([]uint64, 5)
		st := uint64(seed)*0x9E3779B97F4A7C15 + 1
		for i := range words {
			st ^= st << 13
			st ^= st >> 7
			st ^= st << 17
			words[i] = st
		}
		vals := g.SimWords(words)
		for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
			for _, cut := range cuts[v] {
				if len(cut.Leaves) == 1 && cut.Leaves[0] == v {
					continue
				}
				if len(cut.Leaves) > 6 {
					return false
				}
				tt := cut.TT
				// Check 64 sampled patterns: node value must equal the
				// cut function applied to leaf values.
				for bit := 0; bit < 64; bit++ {
					row := 0
					for i, leaf := range cut.Leaves {
						if vals[leaf]&(1<<uint(bit)) != 0 {
							row |= 1 << uint(i)
						}
					}
					want := tt&(1<<uint(row)) != 0
					got := vals[v]&(1<<uint(bit)) != 0
					if got != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestActivitiesBounded(t *testing.T) {
	g := randomAIG(5, 8, 100, 5)
	for v, a := range g.Activities() {
		if a < 0 || a > 0.5+1e-12 {
			t.Fatalf("activity[%d] = %v outside [0, 0.5]", v, a)
		}
	}
}

func TestSweepPreservesNames(t *testing.T) {
	g := New("names")
	a := g.AddPI("alpha")
	b := g.AddPI("beta")
	g.AddPO(g.And(a, b), "gamma")
	s := g.Sweep()
	if s.PIName(0) != "alpha" || s.PIName(1) != "beta" || s.POName(0) != "gamma" {
		t.Error("sweep lost interface names")
	}
	if s.Name != "names" {
		t.Error("sweep lost circuit name")
	}
}
