package aig

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sat"
)

// TestReusedBuilderMatchesOneShot: a Reset and a Prove on one builder
// reused across a pass give exactly the verdict and solve count of a Prove
// on a fresh builder, with and without a window.
func TestReusedBuilderMatchesOneShot(t *testing.T) {
	var proofs, equal int
	for seed := int64(1); seed <= 12; seed++ {
		g := randomAIG(seed, 6, 150, 4)
		rng := rand.New(rand.NewSource(seed))
		for _, window := range []int{0, 8} {
			cnf := NewCNFBuilder(g, sat.New(0))
			cnf.Limit = window
			for q := 0; q < 60; q++ {
				v := MakeLit(g.NumPIs()+1+rng.Intn(g.NumNodes()), false)
				d := MakeLit(1+rng.Intn(g.NumVars()-1), rng.Intn(2) == 0)
				cnf.Reset()
				res, solves := cnf.Prove(v, d, 50)
				fresh := NewCNFBuilder(g, sat.New(0))
				fresh.Limit = window
				if wres, wsolves := fresh.Prove(v, d, 50); res != wres || solves != wsolves {
					t.Fatalf("seed %d window %d: Prove(%d, %d) = %v in %d solves, fresh builder %v in %d",
						seed, window, v, d, res, solves, wres, wsolves)
				}
				proofs++
				if res == Proven {
					equal++
				}
			}
		}
	}
	if equal == 0 || equal == proofs {
		t.Fatalf("%d of %d proofs equal: the comparison needs both verdicts", equal, proofs)
	}
}

// TestWarmMfsWindowAllocatesNothing: once Mfs's builder has held a LUT
// window, resetting it for the next window of that size and proving its
// don't-cares reuses every allocation.
func TestWarmMfsWindowAllocatesNothing(t *testing.T) {
	g := randomAIG(5, 8, 300, 4)
	net := g.MapLUT()
	cnf := NewCNFBuilder(g, sat.New(0))
	cnf.Limit = mfsWindow
	a := net.LUTs[net.Order[len(net.Order)-1]].Leaves
	b := net.LUTs[net.Order[len(net.Order)-2]].Leaves
	windows := func() {
		net.dontCares(cnf, a, 0)
		net.dontCares(cnf, b, 0)
	}
	windows()
	if allocs := testing.AllocsPerRun(20, windows); allocs != 0 {
		t.Errorf("warm LUT windows allocated %.1f times per run", allocs)
	}
}

// TestSortCutsBySizeMatchesSortSlice: the cut sort is unstable and the
// maxCuts truncation keeps whichever equal-size cuts land first, so it must
// produce sort.Slice's exact permutation, ties included, at every length
// either side of the insertion-sort cutoff.
func TestSortCutsBySizeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(80)
		set := make([]sizedCut, n)
		for i := range set {
			// The index tracks identity; sizes collide often.
			set[i] = sizedCut{size: int32(rng.Intn(7)), i: int32(i)}
		}
		want := slices.Clone(set)
		sort.Slice(want, func(i, j int) bool { return want[i].size < want[j].size })
		sortCutsBySize(set)
		for i := range set {
			if set[i].i != want[i].i {
				t.Fatalf("trial %d (n=%d): position %d holds cut %d, sort.Slice put %d there",
					trial, n, i, set[i].i, want[i].i)
			}
		}
	}
}
