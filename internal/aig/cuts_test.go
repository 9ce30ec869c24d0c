package aig_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// refEnumerateCuts is the reference cut enumeration: every merged cut gets
// its own leaf slice and every node a fresh cut list, with the bottom-up
// merge, dominance pruning, size sort and truncation of EnumerateCuts.
// maxSet is the largest candidate set it sorted.
func refEnumerateCuts(g *aig.AIG, k, maxCuts int) (cuts [][][]int, maxSet int) {
	cuts = make([][][]int, g.NumVars())
	cuts[0] = [][]int{{}}
	for v := 1; v <= g.NumPIs(); v++ {
		cuts[v] = [][]int{{v}}
	}
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		f0, f1 := g.Fanins(v)
		var set [][]int
		for _, a := range cuts[f0.Var()] {
			for _, b := range cuts[f1.Var()] {
				m := refUnion(a, b)
				if len(m) > k {
					continue
				}
				dominated := false
				for _, c := range set {
					if refSubset(c, m) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				kept := set[:0]
				for _, c := range set {
					if !refSubset(m, c) {
						kept = append(kept, c)
					}
				}
				set = append(kept, m)
			}
		}
		maxSet = max(maxSet, len(set))
		sort.Slice(set, func(i, j int) bool { return len(set[i]) < len(set[j]) })
		if len(set) > maxCuts-1 {
			set = set[:maxCuts-1]
		}
		cuts[v] = append(set, []int{v})
	}
	return cuts, maxSet
}

func refUnion(a, b []int) []int {
	var out []int
	for _, v := range a {
		out = append(out, v)
	}
	for _, v := range b {
		if !slices.Contains(a, v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func refSubset(c, d []int) bool {
	for _, v := range c {
		if !slices.Contains(d, v) {
			return false
		}
	}
	return true
}

// refCutTruth is the reference cut function: a map memo of every visited
// node's truth table.
func refCutTruth(g *aig.AIG, root aig.Lit, leaves []int) uint64 {
	tt := map[int]uint64{0: 0}
	for i, v := range leaves {
		tt[v] = aig.Truth6Var(i)
	}
	var rec func(v int) uint64
	rec = func(v int) uint64 {
		if t, ok := tt[v]; ok {
			return t
		}
		f0, f1 := g.Fanins(v)
		a, b := rec(f0.Var()), rec(f1.Var())
		if f0.IsCompl() {
			a = ^a
		}
		if f1.IsCompl() {
			b = ^b
		}
		tt[v] = a & b
		return a & b
	}
	t := rec(root.Var())
	if root.IsCompl() {
		t = ^t
	}
	return t & aig.Truth6Mask(len(leaves))
}

// randomGraph builds a seeded random AIG over nPI inputs.
func randomGraph(seed int64, nPI, nNodes int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nNodes; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	g.AddPO(lits[len(lits)-1], "y")
	return g
}

// cutTestGraphs returns seeded random AIGs plus EPFL builds small enough to
// enumerate twice per cut shape in well under a second.
func cutTestGraphs() map[string]*aig.AIG {
	graphs := map[string]*aig.AIG{}
	for seed := int64(1); seed <= 12; seed++ {
		graphs["rand"+string(rune('a'+seed))] = randomGraph(seed, 4+int(seed%6), 40*int(seed))
	}
	for _, gen := range epfl.Suite() {
		switch gen.Name {
		case "ctrl", "dec", "int2float", "router", "cavlc", "i2c", "priority", "multiplier", "adder":
			graphs[gen.Name] = gen.Build()
		}
	}
	return graphs
}

// faninLeaves returns the most distinct leaves that the two fanins' cut
// lists of any AND node span.
func faninLeaves(g *aig.AIG, cuts [][][]int) int {
	widest := 0
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		f0, f1 := g.Fanins(v)
		seen := map[int]bool{}
		for _, cs := range [2][][]int{cuts[f0.Var()], cuts[f1.Var()]} {
			for _, c := range cs {
				for _, l := range c {
					seen[l] = true
				}
			}
		}
		widest = max(widest, len(seen))
	}
	return widest
}

// TestEnumerateCutsMatchesReference: the bitmask enumeration returns the
// reference's cuts in the reference's order, each carrying the map-based
// reference function of its root (0 past 6 leaves). Candidate sets past
// the insertion-sort cutoff of 12 must occur, or the unstable part of the
// sort goes untested, and so must nodes whose fanin cuts span more than 64
// distinct leaves, or masks wider than one word go untested. Voter at k=6,
// maxCuts=32 has such nodes (up to 86 leaves), and dominance prunes
// candidates at some of them.
func TestEnumerateCutsMatchesReference(t *testing.T) {
	type cutCase struct {
		name       string
		g          *aig.AIG
		k, maxCuts int
	}
	var cases []cutCase
	for name, g := range cutTestGraphs() {
		for _, shape := range append([][2]int{{3, 3}}, cutShapes...) {
			cases = append(cases, cutCase{name, g, shape[0], shape[1]})
		}
	}
	voter, err := epfl.Build("voter")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, cutCase{"voter", voter, 6, 32})
	largest, widest := 0, 0
	for _, tc := range cases {
		name, g, k, maxCuts := tc.name, tc.g, tc.k, tc.maxCuts
		got := g.EnumerateCuts(k, maxCuts)
		want, maxSet := refEnumerateCuts(g, k, maxCuts)
		largest = max(largest, maxSet)
		widest = max(widest, faninLeaves(g, want))
		if len(got) != len(want) {
			t.Fatalf("%s k=%d: %d cut lists, want %d", name, k, len(got), len(want))
		}
		for v := range want {
			if len(got[v]) != len(want[v]) {
				t.Fatalf("%s k=%d var %d: %d cuts, want %d", name, k, v, len(got[v]), len(want[v]))
			}
			for i, c := range got[v] {
				if !slices.Equal(c.Leaves, want[v][i]) {
					t.Fatalf("%s k=%d var %d cut %d: leaves %v, want %v", name, k, v, i, c.Leaves, want[v][i])
				}
				var ref uint64
				if len(c.Leaves) <= 6 {
					ref = refCutTruth(g, aig.MakeLit(v, false), c.Leaves)
				}
				if c.TT != ref {
					t.Fatalf("%s k=%d var %d cut %v: function %#x, reference %#x", name, k, v, c.Leaves, c.TT, ref)
				}
			}
		}
	}
	if largest <= 12 {
		t.Fatalf("largest candidate set %d: no set reached the unstable sort", largest)
	}
	if widest <= 64 {
		t.Fatalf("widest fanin leaf set %d: no node needed more than one mask word", widest)
	}
}

// TestEnumerateCutsAppendIsolated: appending to a returned leaf slice or
// cut list copies instead of writing into a neighbour's storage.
func TestEnumerateCutsAppendIsolated(t *testing.T) {
	g := randomGraph(7, 6, 300)
	cuts := g.EnumerateCuts(4, 6)
	want, _ := refEnumerateCuts(g, 4, 6)
	for v := range cuts {
		for i := range cuts[v] {
			cuts[v][i].Leaves = append(cuts[v][i].Leaves, -1, -2)
		}
		cuts[v] = append(cuts[v], aig.Cut{Leaves: []int{-3}})
	}
	for v := range want {
		for i, leaves := range want[v] {
			if got := cuts[v][i].Leaves; !slices.Equal(got[:len(got)-2], leaves) {
				t.Fatalf("var %d cut %d: %v after appends, want %v", v, i, got, leaves)
			}
		}
	}
}
