package aig

import (
	"sort"

	"repro/internal/sat"
)

// LUT is one node of a mapped k-LUT network: a root AIG variable, its cut
// leaves, and the cut function. pristine records that the function still
// matches the underlying AIG cone (so Strash may copy the original
// structure instead of re-synthesizing from cubes — important for
// parity-like functions whose SOP covers are exponential).
type LUT struct {
	Root     int
	Leaves   []int
	TT       uint64
	pristine bool
}

// LUTNet is a k-LUT network over an underlying AIG: the result of
// technology-independent k-LUT mapping (ABC's `if`).
type LUTNet struct {
	G     *AIG
	LUTs  map[int]*LUT // by root variable
	Order []int        // topological order of mapped roots
}

// LUTMapOptions controls k-LUT mapping.
type LUTMapOptions struct {
	K          int  // LUT input count (<= 6)
	MaxCuts    int  // priority cuts per node
	PowerAware bool // weight cut choice by switching activity (ABC's -p)
}

// MapLUT covers the AIG with k-input LUTs using area-flow-based cut
// selection. With PowerAware set, cut costs are weighted by the switching
// activity of the cut boundary, steering the cover toward low-activity
// roots — the power-aware mode of ABC's `if -p`.
func (g *AIG) MapLUT(opt LUTMapOptions) *LUTNet {
	if opt.K == 0 {
		opt.K = 6
	}
	if opt.MaxCuts == 0 {
		opt.MaxCuts = 8
	}
	cuts := g.EnumerateCuts(opt.K, opt.MaxCuts)
	refs := g.FanoutCounts()
	act := g.Activities()

	// Forward pass: best cut per node by area flow.
	type choice struct {
		cut  Cut
		flow float64
	}
	best := make([]choice, g.NumVars())
	for v := 1; v <= g.numPI; v++ {
		best[v] = choice{cut: newCut([]int{v})}
	}
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		bestFlow := -1.0
		var bestCut Cut
		for _, c := range cuts[v] {
			if len(c.Leaves) == 1 && c.Leaves[0] == v {
				continue // trivial cut cannot implement the node
			}
			flow := 1.0
			if opt.PowerAware {
				flow = 0.2 + act[v]
			}
			for _, leaf := range c.Leaves {
				r := refs[leaf]
				if r < 1 {
					r = 1
				}
				flow += best[leaf].flow / float64(r)
			}
			if bestFlow < 0 || flow < bestFlow {
				bestFlow, bestCut = flow, c
			}
		}
		if bestFlow < 0 {
			// Node has only the trivial cut (shouldn't happen for ANDs).
			bestCut = newCut([]int{v})
			bestFlow = 1
		}
		best[v] = choice{cut: bestCut, flow: bestFlow}
	}

	// Backward pass: extract the cover.
	net := &LUTNet{G: g, LUTs: make(map[int]*LUT)}
	var visit func(v int)
	visit = func(v int) {
		if v == 0 || g.IsPI(v) {
			return
		}
		if _, ok := net.LUTs[v]; ok {
			return
		}
		c := best[v].cut
		for _, leaf := range c.Leaves {
			visit(leaf)
		}
		net.LUTs[v] = &LUT{
			Root:     v,
			Leaves:   append([]int(nil), c.Leaves...),
			TT:       g.CutTruth(MakeLit(v, false), c.Leaves),
			pristine: true,
		}
		net.Order = append(net.Order, v)
	}
	for i := 0; i < g.NumPOs(); i++ {
		visit(g.PO(i).Var())
	}
	return net
}

// NumLUTs returns the LUT count of the cover.
func (n *LUTNet) NumLUTs() int { return len(n.LUTs) }

// MfsOptions controls SAT-based don't-care minimization of a LUT network
// (ABC's mfs). Zero-valued numeric fields take their DefaultMfsOptions
// value; a negative SATBudget or Window is unbounded.
type MfsOptions struct {
	SimWords   int   // random-simulation width used to find candidate SDCs
	SATBudget  int64 // conflict budget per don't-care query
	MaxChecks  int   // unobserved input patterns SAT-checked per LUT
	PowerAware bool  // drop high-activity supports first (mfs -p)
	Seed       int64
	// Window bounds the CNF cone encoded per LUT window: one solver per LUT
	// encodes at most Window AND nodes of the leaves' fanin cone, and every
	// query of that LUT reuses it (sound for UNSAT).
	Window int
}

// DefaultMfsOptions returns sensible defaults.
func DefaultMfsOptions() MfsOptions {
	return MfsOptions{SimWords: 16, SATBudget: 200, MaxChecks: 12, Seed: 7, Window: 400}
}

// withDefaults fills the zero-valued numeric fields from DefaultMfsOptions.
func (o MfsOptions) withDefaults() MfsOptions {
	d := DefaultMfsOptions()
	if o.SimWords == 0 {
		o.SimWords = d.SimWords
	}
	if o.SATBudget == 0 {
		o.SATBudget = d.SATBudget
	}
	if o.MaxChecks == 0 {
		o.MaxChecks = d.MaxChecks
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Window == 0 {
		o.Window = d.Window
	}
	return o
}

// Mfs minimizes each LUT's function using satisfiability don't-cares: input
// patterns of the LUT that no primary-input assignment can produce are
// proven with SAT and exploited to reduce the LUT's support and literal
// count. With PowerAware set, support reduction tries the highest-activity
// inputs first so that switching-intensive nets are disconnected
// preferentially — the power-optimizing variant (mfs -pegd) the paper's
// stage 2 uses.
func (n *LUTNet) Mfs(opt MfsOptions) {
	opt = opt.withDefaults()
	sigs := n.G.Signatures(opt.SimWords, opt.Seed)
	act := n.G.Activities()

	for _, root := range n.Order {
		lut := n.LUTs[root]
		k := len(lut.Leaves)
		if k == 0 || k > 6 {
			continue
		}
		dc := n.dontCares(lut.Leaves, observedPatterns(sigs, lut.Leaves), opt)
		if dc == 0 {
			continue
		}
		onset := lut.TT &^ dc
		upper := lut.TT | dc
		// Support reduction: drop inputs the function no longer depends on
		// within the care set; power-aware order tries active nets first.
		tt := onset
		leaves := append([]int(nil), lut.Leaves...)
		care := ^dc & Truth6Mask(k)
		for changed := true; changed; {
			changed = false
			order := make([]int, len(leaves))
			for i := range order {
				order[i] = i
			}
			if opt.PowerAware {
				sort.Slice(order, func(a, b int) bool {
					return act[leaves[order[a]]] > act[leaves[order[b]]]
				})
			}
			for _, i := range order {
				if removableInput(tt, care, i, len(leaves)) {
					tt, care, leaves = dropInput(tt, care, i, leaves)
					changed = true
					break
				}
			}
		}
		if len(leaves) < len(lut.Leaves) {
			lut.Leaves = leaves
			lut.TT = tt & Truth6Mask(len(leaves))
			lut.pristine = false
			continue
		}
		// Otherwise keep the cover but adopt the ISOP-minimized function
		// within [onset, upper] to reduce literal count.
		cubes := ISOP(onset, upper, k)
		min := CoverTruth(cubes, k)
		if min != lut.TT {
			lut.TT = min
			lut.pristine = false
		}
	}
}

// observedPatterns returns the set of leaf-value patterns (bit idx set when
// leaf i carries bit i of idx) that occur in the simulation signatures. Each
// pattern is one bitwise test per signature word: the AND over the leaves of
// sig or ^sig, stopping at the first word where it is non-zero.
func observedPatterns(sigs [][]uint64, leaves []int) uint64 {
	var seen uint64
	words := len(sigs[leaves[0]])
	for idx := 0; idx < 1<<uint(len(leaves)); idx++ {
		for w := 0; w < words; w++ {
			m := ^uint64(0)
			for i, leaf := range leaves {
				if idx&(1<<uint(i)) != 0 {
					m &= sigs[leaf][w]
				} else {
					m &^= sigs[leaf][w]
				}
			}
			if m != 0 {
				seen |= 1 << uint(idx)
				break
			}
		}
	}
	return seen
}

// dontCares proves up to MaxChecks of the unobserved leaf patterns
// unreachable and returns them as a satisfiability don't-care mask. One
// solver per LUT window, created on the first unobserved pattern, holds the
// leaves' windowed cone (encoded in leaf order, at most Window AND nodes);
// each pattern is one Solve under the leaf-value assumptions, with a
// SATBudget conflict budget per query. Learned clauses are implied by the
// window CNF, so each Sat/Unsat verdict is the one a fresh solver per
// pattern would give; only a budget-limited Unknown can differ.
func (n *LUTNet) dontCares(leaves []int, observed uint64, opt MfsOptions) uint64 {
	var s *sat.Solver
	var vars []int
	assumptions := make([]sat.Lit, len(leaves))
	var dc uint64
	checks := 0
	for idx := 0; idx < 1<<uint(len(leaves)) && checks < opt.MaxChecks; idx++ {
		if observed&(1<<uint(idx)) != 0 {
			continue
		}
		checks++
		if s == nil {
			s = sat.New(0)
			s.ConflictBudget = opt.SATBudget
			cb := NewCNFBuilder(n.G, s)
			cb.Limit = opt.Window
			vars = make([]int, len(leaves))
			for i, leaf := range leaves {
				vars[i] = cb.SatVar(leaf)
			}
		}
		for i, v := range vars {
			assumptions[i] = sat.L(v, idx&(1<<uint(i)) == 0)
		}
		if s.Solve(assumptions...) == sat.Unsat {
			dc |= 1 << uint(idx)
		}
	}
	return dc
}

// removableInput reports whether the function tt (with care set) is
// insensitive to input i over the care minterms.
func removableInput(tt, care uint64, i, k int) bool {
	lo, hi := truth6Cofactors(tt, i)
	cl, ch := truth6Cofactors(care, i)
	both := cl & ch & Truth6Mask(k)
	return (lo^hi)&both == 0
}

// dropInput removes input i, compacting the truth table and leaf list.
func dropInput(tt, care uint64, i int, leaves []int) (uint64, uint64, []int) {
	k := len(leaves)
	// Choose, per remaining minterm, a defined cofactor value.
	lo, hi := truth6Cofactors(tt, i)
	cl, ch := truth6Cofactors(care, i)
	merged := (lo & cl) | (hi &^ cl) // prefer the low cofactor where cared
	mc := cl | ch                    // merged care: union of cofactor cares
	// Compact: move variables above i down by one position.
	for j := i; j < k-1; j++ {
		merged = truthSwapAdjacent(merged, j)
		mc = truthSwapAdjacent(mc, j)
	}
	newLeaves := append(append([]int(nil), leaves[:i]...), leaves[i+1:]...)
	return merged & Truth6Mask(k-1), mc & Truth6Mask(k-1), newLeaves
}

// copyCone replicates the AIG cone between root and the cut leaves into
// dst, with the leaves bound to the given dst literals.
func copyCone(src, dst *AIG, root int, leaves []int, bound []Lit) Lit {
	local := make(map[int]Lit, 8)
	for i, leaf := range leaves {
		local[leaf] = bound[i]
	}
	var rec func(v int) Lit
	rec = func(v int) Lit {
		if l, ok := local[v]; ok {
			return l
		}
		f0, f1 := src.Fanins(v)
		a := rec(f0.Var()).NotIf(f0.IsCompl())
		b := rec(f1.Var()).NotIf(f1.IsCompl())
		l := dst.And(a, b)
		local[v] = l
		return l
	}
	return rec(root)
}

// Strash converts the LUT network back into a structurally hashed AIG,
// synthesizing each LUT in factored form (the `strash` step closing the
// paper's stage 2).
func (n *LUTNet) Strash() *AIG {
	g := n.G
	out := New(g.Name)
	m := make(map[int]Lit, len(n.LUTs)+g.NumPIs()+1)
	m[0] = False
	for i := 0; i < g.NumPIs(); i++ {
		m[i+1] = out.AddPI(g.PIName(i))
	}
	for _, root := range n.Order {
		lut := n.LUTs[root]
		leaves := make([]Lit, len(lut.Leaves))
		for i, leaf := range lut.Leaves {
			leaves[i] = m[leaf]
		}
		k := len(lut.Leaves)
		mask := Truth6Mask(k)
		tt := lut.TT & mask
		var l Lit
		switch {
		case tt == 0:
			l = False
		case tt == mask:
			l = True
		case lut.pristine:
			// Copy the original cone: never worse than the source and
			// avoids SOP blowup on parity-like functions.
			l = copyCone(g, out, root, lut.Leaves, leaves)
		default:
			pos := ISOP(tt, tt, k)
			neg := ISOP(^tt&mask, ^tt&mask, k)
			if len(neg) < len(pos) {
				l = out.buildFactored(neg, leaves).Not()
			} else {
				l = out.buildFactored(pos, leaves)
			}
		}
		m[root] = l
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		l, ok := m[po.Var()]
		if !ok {
			l = False
		}
		out.AddPO(l.NotIf(po.IsCompl()), g.POName(i))
	}
	return out.Sweep()
}
