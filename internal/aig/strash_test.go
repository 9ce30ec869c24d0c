package aig

import (
	"math/rand"
	"testing"
)

// TestStrashMatchesMap drives And with random operands — constants,
// complements, commuted and repeated pairs — across several table growths
// and checks every literal and the node count against a reference map.
func TestStrashMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New("strash")
		lits := []Lit{False, True}
		for i := 0; i < 8; i++ {
			lits = append(lits, g.AddPI("pi"))
		}
		ref := make(map[[2]Lit]Lit)
		refNodes := 0
		for op := 0; op < 20000; op++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			if rng.Intn(8) == 0 {
				b = a // duplicate operand
			}
			got := g.And(a, b)
			hi, lo := max(a, b), min(a, b)
			var want Lit
			switch {
			case lo == False:
				want = False
			case lo == True, hi == lo:
				want = hi
			case hi == lo.Not():
				want = False
			default:
				l, ok := ref[[2]Lit{hi, lo}]
				if !ok {
					refNodes++
					l = MakeLit(g.numPI+refNodes, false)
					ref[[2]Lit{hi, lo}] = l
				}
				want = l
			}
			if got != want {
				t.Fatalf("seed %d op %d: And(%d, %d) = %d, want %d", seed, op, a, b, got, want)
			}
			if g.NumNodes() != refNodes {
				t.Fatalf("seed %d op %d: %d nodes, want %d", seed, op, g.NumNodes(), refNodes)
			}
			lits = append(lits, got)
		}
		if len(g.strash.keys) < 8*strashMinSlots {
			t.Fatalf("seed %d: table of %d slots never grew past three doublings", seed, len(g.strash.keys))
		}
	}
}

// TestCloneStrashIndependent checks that a clone starts with its source's
// strash entries and that neither graph sees nodes the other adds later.
func TestCloneStrashIndependent(t *testing.T) {
	g := New("src")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	ab := g.And(a, b)
	cl := g.Clone()
	if got := cl.And(b, a); got != ab || cl.NumNodes() != 1 {
		t.Fatalf("clone And(b, a) = %d with %d nodes, want the copied node %d", got, cl.NumNodes(), ab)
	}
	g.And(ab, c)
	if g.NumNodes() != 2 || cl.NumNodes() != 1 {
		t.Fatalf("after a source And: source %d nodes, clone %d, want 2 and 1", g.NumNodes(), cl.NumNodes())
	}
	cl.And(a.Not(), c)
	cl.And(ab, c)
	if cl.NumNodes() != 3 {
		t.Fatalf("clone found a node only its source has: %d nodes, want 3", cl.NumNodes())
	}
	g.And(a.Not(), c)
	if g.NumNodes() != 3 {
		t.Fatalf("source found a node only its clone has: %d nodes, want 3", g.NumNodes())
	}
}

// mffcSizeRef is the map-based MFFC count the scratch version replaced.
func mffcSizeRef(g *AIG, v int, leaves []int, refs []int) int {
	leafSet := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		leafSet[l] = true
	}
	local := make(map[int]int)
	var count func(u int) int
	count = func(u int) int {
		if leafSet[u] || !g.IsAnd(u) {
			return 0
		}
		n := 1
		for _, f := range []Lit{g.nodes[u].fan0, g.nodes[u].fan1} {
			w := f.Var()
			local[w]++
			if !leafSet[w] && g.IsAnd(w) && local[w] >= refs[w] {
				n += count(w)
			}
		}
		return n
	}
	return count(v)
}

// TestVarMarksMatchReference runs the MFFC count over every cut of every
// node with one shared scratch and compares each answer with the map-based
// reference; the scratch must be all zero afterwards.
func TestVarMarksMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomAIG(seed, 10, 400, 6)
		refs := g.FanoutCounts()
		marks := newVarMarks(g.NumVars())
		for v, cs := range g.EnumerateCuts(4, 6) {
			if !g.IsAnd(v) {
				continue
			}
			for _, c := range cs {
				if got, want := g.mffcSize(marks, v, c.Leaves, refs), mffcSizeRef(g, v, c.Leaves, refs); got != want {
					t.Fatalf("seed %d node %d cut %v: MFFC %d, want %d", seed, v, c.Leaves, got, want)
				}
			}
		}
		for v, x := range marks.val {
			if x != 0 {
				t.Fatalf("seed %d: scratch mark %d left on variable %d", seed, x, v)
			}
		}
	}
}

// TestFactoredBuildAllocFree checks that rebuilding a factored form of up
// to maxFactorCubes cubes over 6 leaves, and one MFFC count with a warm
// scratch, allocate nothing. AllocsPerRun's warm-up run creates the nodes;
// the measured runs find them all in the strash table, so only the
// builders' own allocations would show.
func TestFactoredBuildAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tested := 0
	for tested < 20 {
		tt := rng.Uint64()
		cubes := ISOP(tt, tt, 6)
		if len(cubes) > maxFactorCubes {
			continue
		}
		tested++
		g := newSized("f", 1024)
		var leaves [6]Lit
		for i := range leaves {
			leaves[i] = g.AddPI("x")
		}
		var root Lit
		if allocs := testing.AllocsPerRun(10, func() { root = g.buildFactored(cubes, leaves[:]) }); allocs != 0 {
			t.Fatalf("buildFactored of %d cubes: %v allocations per run", len(cubes), allocs)
		}
		g.AddPO(root, "f")
		vals := make([]uint64, g.NumVars())
		for i := range leaves {
			vals[leaves[i].Var()] = Truth6Var(i)
		}
		for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
			f0, f1 := g.Fanins(v)
			vals[v] = EvalLit(vals, f0) & EvalLit(vals, f1)
		}
		if got := EvalLit(vals, root); got != tt {
			t.Fatalf("factored form computes %016x, want %016x", got, tt)
		}
	}

	g := randomAIG(3, 8, 300, 4)
	refs := g.FanoutCounts()
	marks := newVarMarks(g.NumVars())
	v := g.NumVars() - 1
	leaves := g.EnumerateCuts(6, 4)[v][0].Leaves
	if allocs := testing.AllocsPerRun(10, func() { g.mffcSize(marks, v, leaves, refs) }); allocs != 0 {
		t.Fatalf("MFFC count: %v allocations per run", allocs)
	}
}
