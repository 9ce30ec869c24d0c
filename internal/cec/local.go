package cec

import "repro/internal/aig"

// Cut-local proof limits. A candidate pair whose two cones meet a few
// nodes below the roots is proven on a common cut of at most cutLeaves
// leaves, simulated exhaustively in one uint64 truth table; pairs that need
// a wider frontier, or more than cutNodes expansions, go to SAT.
const (
	cutLeaves = 6  // leaves of a simulated cut (one uint64 truth table)
	cutFront  = 10 // frontier cap: the search gives up past it
	cutNodes  = 32 // expanded-node cap
)

// cutProver proves two literals of g equal without SAT when a small common
// cut exists. It owns only a truth-table scratch indexed by g's variables,
// so a call allocates nothing beyond growing that scratch with g.
type cutProver struct {
	g  *aig.AIG
	tt []uint64 // g variable -> truth table over the current cut
}

// equal reports whether x ≡ y was proven on a common cut. The search starts
// from the frontier {x, y} and repeatedly expands the highest-level AND node
// of the frontier into its fanins, so the frontier stays a cut of both
// roots. Whenever it holds at most cutLeaves leaves, the expanded nodes are
// simulated bottom-up over the leaves: equal tables are a proof, because two
// functions of a common cut that agree on every cut assignment agree on
// every reachable one. A root still on the frontier is simply one of the
// leaves (y ≡ x can hold with y inside x's cone). false means "not proven
// here", never "different": correlated leaves can make two nodes equal
// while their cut tables differ.
func (c *cutProver) equal(x, y aig.Lit) bool {
	g := c.g
	xv, yv := x.Var(), y.Var()
	if xv == yv || !g.IsAnd(xv) || !g.IsAnd(yv) {
		return false
	}
	var front [cutFront]int
	var inner [cutNodes]int
	front[0], front[1] = xv, yv
	nf, ni := 2, 0
	for ni < cutNodes {
		best := -1
		for i, v := range front[:nf] {
			if g.IsAnd(v) && (best < 0 || g.Level(v) > g.Level(front[best])) {
				best = i
			}
		}
		if best < 0 {
			return false // every leaf is a primary input
		}
		n := front[best]
		nf--
		front[best] = front[nf]
		inner[ni] = n
		ni++
		// Expanding in non-increasing level order means a fanin (strictly
		// lower level) was never expanded before: it becomes a leaf or is
		// one already.
		f0, f1 := g.Fanins(n)
		for _, f := range [2]int{f0.Var(), f1.Var()} {
			if indexOf(front[:nf], f) < 0 {
				if nf == cutFront {
					return false
				}
				front[nf] = f
				nf++
			}
		}
		if nf <= cutLeaves && c.sameTable(x, y, front[:nf], inner[:ni]) {
			return true
		}
	}
	return false
}

// sameTable simulates the expanded nodes (in reverse expansion order, which
// puts every fanin before its fanout) over the cut leaves and compares the
// two roots' tables.
func (c *cutProver) sameTable(x, y aig.Lit, leaves, inner []int) bool {
	if n := c.g.NumVars(); len(c.tt) < n {
		c.tt = make([]uint64, 2*n) // tables are rebuilt per call: no copy
	}
	for i, v := range leaves {
		c.tt[v] = aig.Truth6Var(i)
	}
	for j := len(inner) - 1; j >= 0; j-- {
		f0, f1 := c.g.Fanins(inner[j])
		c.tt[inner[j]] = c.lit(f0) & c.lit(f1)
	}
	return (c.lit(x)^c.lit(y))&aig.Truth6Mask(len(leaves)) == 0
}

// lit is the truth table of a literal over the current cut.
func (c *cutProver) lit(l aig.Lit) uint64 {
	if l.IsCompl() {
		return ^c.tt[l.Var()]
	}
	return c.tt[l.Var()]
}

func indexOf(vs []int, v int) int {
	for i, u := range vs {
		if u == v {
			return i
		}
	}
	return -1
}
