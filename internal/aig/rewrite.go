package aig

// Rewrite and Refactor: cut-based resynthesis in the style of DAG-aware AIG
// rewriting [Mishchenko et al., DAC'06] and refactoring [Brayton &
// Mishchenko, IWLS'06]. Each node's cut function is re-synthesized from an
// irredundant SOP (factored form), and the replacement is accepted when it
// adds fewer nodes than the node's maximum fanout-free cone would release —
// with structural hashing providing free reuse of existing logic. Losing
// candidates are left dangling and removed by the final sweep.

// RewriteOptions tunes the resynthesis passes.
type RewriteOptions struct {
	CutSize   int  // cut width (4 for rewrite, 6 for refactor)
	MaxCuts   int  // priority cuts kept per node
	ZeroCost  bool // accept zero-gain replacements (perturbation)
	UseFactor bool // build factored forms instead of flat SOPs
}

// Rewrite runs cut-based resynthesis with 4-input cuts.
func (g *AIG) Rewrite(zeroCost bool) *AIG {
	done := startPass("rewrite", g)
	out := g.resynthesize(RewriteOptions{CutSize: 4, MaxCuts: 6, ZeroCost: zeroCost, UseFactor: true})
	done(out)
	return out
}

// Refactor runs resynthesis with wide (6-input) cuts and factored-form
// construction.
func (g *AIG) Refactor() *AIG {
	done := startPass("refactor", g)
	out := g.resynthesize(RewriteOptions{CutSize: 6, MaxCuts: 4, UseFactor: true})
	done(out)
	return out
}

func (g *AIG) resynthesize(opt RewriteOptions) *AIG {
	cuts := g.EnumerateCuts(opt.CutSize, opt.MaxCuts)
	refs := g.FanoutCounts()
	isopCache := make(map[uint64][]Cube)
	marks := newVarMarks(g.NumVars())

	out := newSized(g.Name, g.NumVars())
	m := make([]Lit, g.NumVars())
	m[0] = False
	for i := 0; i < g.numPI; i++ {
		m[i+1] = out.AddPI(g.pis[i])
	}
	var leafBuf [6]Lit
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		f0, f1 := g.Fanins(v)
		dflt := out.And(m[f0.Var()].NotIf(f0.IsCompl()), m[f1.Var()].NotIf(f1.IsCompl()))
		best := dflt
		bestGain := 0
		if opt.ZeroCost {
			bestGain = -1
		}
		for _, cut := range cuts[v] {
			if len(cut.Leaves) < 2 || len(cut.Leaves) > 6 {
				continue
			}
			// Trivial cut (just v) is useless for resynthesis.
			if len(cut.Leaves) == 1 && cut.Leaves[0] == v {
				continue
			}
			mffc := g.mffcSize(marks, v, cut.Leaves, refs)
			if mffc < 1 {
				continue
			}
			tt, n := cut.TT, len(cut.Leaves)
			// Synthesize the smaller phase.
			cubesPos, okPos := cachedISOP(isopCache, tt, n)
			cubesNeg, okNeg := cachedISOP(isopCache, ^tt&Truth6Mask(n), n)
			leaves := leafBuf[:n]
			for i, lv := range cut.Leaves {
				leaves[i] = m[lv]
			}
			for phase := 0; phase < 2; phase++ {
				var cubes []Cube
				switch {
				case phase == 0 && okPos:
					cubes = cubesPos
				case phase == 1 && okNeg:
					cubes = cubesNeg
				default:
					continue
				}
				before := out.NumNodes()
				var cand Lit
				if opt.UseFactor {
					cand = out.buildFactored(cubes, leaves)
				} else {
					cand = out.BuildFromCubes(cubes, leaves)
				}
				if phase == 1 {
					cand = cand.Not()
				}
				added := out.NumNodes() - before
				if gain := mffc - added; gain > bestGain {
					bestGain = gain
					best = cand
				}
			}
		}
		m[v] = best
	}
	for i, po := range g.pos {
		out.AddPO(m[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	return out.Sweep()
}

// maxFactorCubes is the cover size the factored-form builders handle in
// stack buffers; cachedISOP rejects larger covers, so only LUT strashing
// (up to 32 cubes for a 6-input parity) ever spills to the heap.
const maxFactorCubes = 16

func cachedISOP(cache map[uint64][]Cube, tt uint64, n int) ([]Cube, bool) {
	key := tt | uint64(n)<<58
	if c, ok := cache[key]; ok {
		return c, true
	}
	c := ISOP(tt, tt, n)
	// Reject pathological covers (keeps candidate-node bloat bounded).
	if len(c) > 16 {
		cache[key] = nil
		return nil, false
	}
	cache[key] = c
	return c, true
}

// buildFactored synthesizes a cube cover in algebraically factored form:
// the most frequent literal is divided out recursively (quick-factor),
// yielding multi-level structures that share better than flat SOPs. Covers
// of up to maxFactorCubes cubes over up to 6 leaves build without a heap
// allocation.
func (g *AIG) buildFactored(cubes []Cube, leaves []Lit) Lit {
	switch len(cubes) {
	case 0:
		return False
	case 1:
		return g.cubeAnd(cubes[0], leaves)
	}
	// Count literal occurrences.
	n := len(leaves)
	bestLit, bestCount, bestNeg := -1, 1, false
	for i := 0; i < n; i++ {
		pos, neg := 0, 0
		for _, c := range cubes {
			if c.Pos&(1<<uint(i)) != 0 {
				pos++
			}
			if c.Neg&(1<<uint(i)) != 0 {
				neg++
			}
		}
		if pos > bestCount {
			bestLit, bestCount, bestNeg = i, pos, false
		}
		if neg > bestCount {
			bestLit, bestCount, bestNeg = i, neg, true
		}
	}
	if bestLit < 0 {
		// No shared literal: flat OR of cube ANDs.
		var buf [maxFactorCubes]Lit
		terms := buf[:0]
		for _, c := range cubes {
			terms = append(terms, g.cubeAnd(c, leaves))
		}
		return g.balancedTree(terms, false)
	}
	bit := uint32(1) << uint(bestLit)
	var qbuf, rbuf [maxFactorCubes]Cube
	quot, rem := qbuf[:0], rbuf[:0]
	for _, c := range cubes {
		switch {
		case !bestNeg && c.Pos&bit != 0:
			c.Pos &^= bit
			quot = append(quot, c)
		case bestNeg && c.Neg&bit != 0:
			c.Neg &^= bit
			quot = append(quot, c)
		default:
			rem = append(rem, c)
		}
	}
	l := leaves[bestLit].NotIf(bestNeg)
	q := g.buildFactored(quot, leaves)
	r := g.buildFactored(rem, leaves)
	return g.Or(g.And(l, q), r)
}

func (g *AIG) cubeAnd(c Cube, leaves []Lit) Lit {
	var buf [12]Lit
	lits := buf[:0]
	for i, leaf := range leaves {
		if c.Pos&(1<<uint(i)) != 0 {
			lits = append(lits, leaf)
		}
		if c.Neg&(1<<uint(i)) != 0 {
			lits = append(lits, leaf.Not())
		}
	}
	return g.balancedTree(lits, true)
}
