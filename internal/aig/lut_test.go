package aig

import (
	"math/bits"
	"testing"

	"repro/internal/sat"
)

// observedPatternsRef is the reference observed-pattern scan: every
// simulated bit of every word, one pattern index per bit.
func observedPatternsRef(sigs [][]uint64, leaves []int, words int) uint64 {
	var seen uint64
	for w := 0; w < words; w++ {
		for bit := 0; bit < 64; bit++ {
			idx := 0
			for i, leaf := range leaves {
				if sigs[leaf][w]&(1<<uint(bit)) != 0 {
					idx |= 1 << uint(i)
				}
			}
			seen |= 1 << uint(idx)
		}
	}
	return seen
}

// patternUnreachableRef is the reference don't-care proof: a fresh solver
// and a fresh windowed encoding of the leaves for every pattern.
func patternUnreachableRef(g *AIG, leaves []int, idx int, budget int64, window int) bool {
	s := sat.New(0)
	s.ConflictBudget = budget
	cb := NewCNFBuilder(g, s)
	cb.Limit = window
	assumptions := make([]sat.Lit, len(leaves))
	for i, leaf := range leaves {
		neg := idx&(1<<uint(i)) == 0
		assumptions[i] = sat.L(cb.SatVar(leaf), neg)
	}
	return s.Solve(assumptions...) == sat.Unsat
}

// dontCaresRef checks the first mfsMaxChecks unobserved patterns one fresh
// solver at a time.
func dontCaresRef(g *AIG, leaves []int, observed uint64, window int) (dc uint64, checks int) {
	for idx := 0; idx < 1<<uint(len(leaves)) && checks < mfsMaxChecks; idx++ {
		if observed&(1<<uint(idx)) != 0 {
			continue
		}
		checks++
		if patternUnreachableRef(g, leaves, idx, mfsSATBudget, window) {
			dc |= 1 << uint(idx)
		}
	}
	return dc, checks
}

// TestMfsDontCaresMatchReference pins Mfs's fast path to the references: the
// per-pattern word test finds the same observed patterns as the per-bit
// scan, and the incremental solver per LUT window, one builder reset from
// LUT to LUT as in Mfs, proves the same don't-care mask as a fresh solver
// per pattern. Mfs's own simulation width and window prove every
// unobserved pattern unreachable; one simulation word and a narrow window
// also leave reachable and spuriously reachable patterns, so the shared
// solver answers Sat between Unsat queries.
func TestMfsDontCaresMatchReference(t *testing.T) {
	type setting struct{ words, window int }
	for _, opt := range []setting{{mfsSimWords, mfsWindow}, {1, mfsWindow}, {1, 8}} {
		var luts, checks, dcBits int
		for seed := int64(1); seed <= 20; seed++ {
			g := randomAIG(seed, 8, 120, 6)
			sigs := g.Signatures(opt.words, 7)
			net := g.MapLUT()
			// One builder for the whole net, as Mfs keeps per pass.
			cnf := NewCNFBuilder(g, sat.New(0))
			cnf.Limit = opt.window
			for _, root := range net.Order {
				leaves := net.LUTs[root].Leaves
				obs := observedPatterns(sigs, leaves)
				if want := observedPatternsRef(sigs, leaves, opt.words); obs != want {
					t.Fatalf("%+v seed %d LUT %d: observed %#x, reference scan %#x", opt, seed, root, obs, want)
				}
				want, n := dontCaresRef(g, leaves, obs, opt.window)
				if got := net.dontCares(cnf, leaves, obs); got != want {
					t.Fatalf("%+v seed %d LUT %d: don't-cares %#x, reference %#x", opt, seed, root, got, want)
				}
				luts++
				checks += n
				dcBits += bits.OnesCount64(want)
			}
		}
		t.Logf("%+v: %d LUTs, %d SAT checks, %d proven don't-cares", opt, luts, checks, dcBits)
		// The comparison must not be vacuous: SAT queries ran and proved
		// some patterns unreachable.
		if checks == 0 || dcBits == 0 {
			t.Fatalf("%+v: %d LUTs, %d SAT checks, %d don't-cares: oracle exercised nothing", opt, luts, checks, dcBits)
		}
		if opt.words == 1 && dcBits == checks {
			t.Fatalf("%+v: every query was Unsat; the Sat path went untested", opt)
		}
	}
}
