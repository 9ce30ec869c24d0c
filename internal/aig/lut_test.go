package aig

import (
	"math/bits"
	"slices"
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

// dontCaresRef checks the first MaxChecks unobserved patterns one fresh
// solver at a time.
func dontCaresRef(g *AIG, leaves []int, observed uint64, opt MfsOptions) (dc uint64, checks int) {
	for idx := 0; idx < 1<<uint(len(leaves)) && checks < opt.MaxChecks; idx++ {
		if observed&(1<<uint(idx)) != 0 {
			continue
		}
		checks++
		if patternUnreachableRef(g, leaves, idx, opt.SATBudget, opt.Window) {
			dc |= 1 << uint(idx)
		}
	}
	return dc, checks
}

// TestMfsDontCaresMatchReference pins Mfs's fast path to the references: the
// per-pattern word test finds the same observed patterns as the per-bit
// scan, and the one incremental solver per LUT window proves the same
// don't-care mask as a fresh solver per pattern. Default options prove
// every unobserved pattern unreachable; one simulation word and a narrow
// window also leave reachable and spuriously reachable patterns, so the
// shared solver answers Sat between Unsat queries.
func TestMfsDontCaresMatchReference(t *testing.T) {
	narrow := DefaultMfsOptions()
	narrow.SimWords = 1
	tiny := narrow
	tiny.Window = 8
	for _, opt := range []MfsOptions{DefaultMfsOptions(), narrow, tiny} {
		var luts, checks, dcBits int
		for seed := int64(1); seed <= 20; seed++ {
			g := randomAIG(seed, 8, 120, 6)
			sigs := g.Signatures(opt.SimWords, opt.Seed)
			for _, k := range []int{5, 6} {
				net := g.MapLUT(LUTMapOptions{K: k})
				for _, root := range net.Order {
					leaves := net.LUTs[root].Leaves
					obs := observedPatterns(sigs, leaves)
					if want := observedPatternsRef(sigs, leaves, opt.SimWords); obs != want {
						t.Fatalf("%+v seed %d K=%d LUT %d: observed %#x, reference scan %#x", opt, seed, k, root, obs, want)
					}
					want, n := dontCaresRef(g, leaves, obs, opt)
					if got := net.dontCares(leaves, obs, opt); got != want {
						t.Fatalf("%+v seed %d K=%d LUT %d: don't-cares %#x, reference %#x", opt, seed, k, root, got, want)
					}
					luts++
					checks += n
					dcBits += bits.OnesCount64(want)
				}
			}
		}
		t.Logf("%+v: %d LUTs, %d SAT checks, %d proven don't-cares", opt, luts, checks, dcBits)
		// The comparison must not be vacuous: SAT queries ran and proved
		// some patterns unreachable.
		if checks == 0 || dcBits == 0 {
			t.Fatalf("%+v: %d LUTs, %d SAT checks, %d don't-cares: oracle exercised nothing", opt, luts, checks, dcBits)
		}
		if opt.SimWords == 1 && dcBits == checks {
			t.Fatalf("%+v: every query was Unsat; the Sat path went untested", opt)
		}
	}
}

// TestOptionDefaultsKeepCallerFields: a zero-valued field takes its default
// without discarding the fields the caller did set.
func TestOptionDefaultsKeepCallerFields(t *testing.T) {
	want := DefaultMfsOptions()
	want.PowerAware, want.Seed, want.MaxChecks = true, 42, 3
	if got := (MfsOptions{PowerAware: true, Seed: 42, MaxChecks: 3}).withDefaults(); got != want {
		t.Errorf("Mfs defaults: got %+v, want %+v", got, want)
	}
	rwant := DefaultResubOptions()
	rwant.Seed, rwant.MaxPairs, rwant.Window = 9, 5, 50
	if got := (ResubOptions{Seed: 9, MaxPairs: 5, Window: 50}).withDefaults(); got != rwant {
		t.Errorf("Resub defaults: got %+v, want %+v", got, rwant)
	}

	// End to end: Mfs with SimWords unset honours the fields the caller set.
	// One check per LUT leaves fewer don't-cares than the default twelve,
	// so the comparison with plain defaults shows the fields took effect.
	sparse := MfsOptions{PowerAware: true, Seed: 42, MaxChecks: 1}
	full := sparse.withDefaults()
	differs := false
	for seed := int64(1); seed <= 6; seed++ {
		g := randomAIG(seed, 6, 80, 5)
		a, b, c := g.MapLUT(LUTMapOptions{K: 5}), g.MapLUT(LUTMapOptions{K: 5}), g.MapLUT(LUTMapOptions{K: 5})
		a.Mfs(sparse)
		b.Mfs(full)
		c.Mfs(DefaultMfsOptions())
		for _, root := range a.Order {
			la, lb, lc := a.LUTs[root], b.LUTs[root], c.LUTs[root]
			if la.TT != lb.TT || !slices.Equal(la.Leaves, lb.Leaves) {
				t.Fatalf("seed %d LUT %d: sparse options gave %#x/%v, full options %#x/%v",
					seed, root, la.TT, la.Leaves, lb.TT, lb.Leaves)
			}
			differs = differs || lb.TT != lc.TT || !slices.Equal(lb.Leaves, lc.Leaves)
		}
	}
	if !differs {
		t.Fatal("the caller's options changed no LUT: the test cannot see dropped fields")
	}
}
