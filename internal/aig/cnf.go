package aig

import "repro/internal/sat"

// CNFBuilder incrementally Tseitin-encodes AIG cones into a SAT solver.
// When Limit is positive, at most Limit AND nodes are given defining
// clauses; deeper nodes become free cut-point variables. That windowing
// keeps proofs cheap and remains SOUND for UNSAT-based conclusions (if the
// miter is unsatisfiable even with free cut points, it is unsatisfiable for
// the real cone), at the cost of completeness (spurious SAT answers).
type CNFBuilder struct {
	G      *AIG
	S      *sat.Solver
	Limit  int         // max AND nodes encoded; 0 = unlimited
	varMap map[int]int // AIG variable -> SAT variable
	nAnds  int
}

// NewCNFBuilder returns a builder over the given graph and solver.
func NewCNFBuilder(g *AIG, s *sat.Solver) *CNFBuilder {
	return &CNFBuilder{G: g, S: s, varMap: make(map[int]int)}
}

// SatVar returns the SAT variable encoding the given AIG variable, encoding
// its transitive fanin cone on first use (up to Limit AND nodes).
func (b *CNFBuilder) SatVar(v int) int {
	if sv, ok := b.varMap[v]; ok {
		return sv
	}
	sv := b.S.AddVar()
	b.varMap[v] = sv
	if v == 0 {
		// Constant node: force FALSE.
		b.S.AddClause(sat.L(sv, true))
		return sv
	}
	if b.G.IsAnd(v) {
		if b.Limit > 0 && b.nAnds >= b.Limit {
			return sv // free cut point
		}
		b.nAnds++
		f0, f1 := b.G.Fanins(v)
		a := b.SatLit(f0)
		c := b.SatLit(f1)
		y := sat.L(sv, false)
		// y <-> a & c
		b.S.AddClause(y.Not(), a)
		b.S.AddClause(y.Not(), c)
		b.S.AddClause(y, a.Not(), c.Not())
	}
	return sv
}

// SatLit returns the SAT literal encoding the given AIG literal.
func (b *CNFBuilder) SatLit(l Lit) sat.Lit {
	return sat.L(b.SatVar(l.Var()), l.IsCompl())
}

// ProveEqual checks whether two literals of the same AIG are functionally
// equivalent over all PI assignments, within the given conflict budget.
// It returns (equal, proven): proven is false when the budget ran out.
func ProveEqual(g *AIG, a, b Lit, budget int64) (equal, proven bool) {
	return ProveEqualWindow(g, a, b, budget, 0)
}

// ProveEqualWindow is ProveEqual with a bounded CNF window: at most
// windowNodes AND nodes are encoded (0 = unlimited). A windowed UNSAT
// verdict is sound; a windowed SAT verdict may be spurious, so it is
// reported as not-equal-but-proven=false when windowed.
func ProveEqualWindow(g *AIG, a, b Lit, budget int64, windowNodes int) (equal, proven bool) {
	if a == b {
		return true, true
	}
	s := sat.New(0)
	s.ConflictBudget = budget
	cb := NewCNFBuilder(g, s)
	cb.Limit = windowNodes
	la := cb.SatLit(a)
	lb := cb.SatLit(b)
	windowed := windowNodes > 0 && cb.nAnds >= windowNodes
	// Miter: (a != b) satisfiable?
	switch s.Solve(la, lb.Not()) {
	case sat.Sat:
		return false, !windowed
	case sat.Unknown:
		return false, false
	}
	switch s.Solve(la.Not(), lb) {
	case sat.Sat:
		return false, !windowed
	case sat.Unknown:
		return false, false
	}
	return true, true
}

// Equivalent checks combinational equivalence of two AIGs with identical PI
// and PO counts, returning (equivalent, proven). It builds a joint miter
// and checks it output by output with independent SAT calls under the
// per-output conflict budget. The simulation-guided SAT-sweeping engine
// lives in internal/cec, which builds on this package; Equivalent is the
// plain oracle this package's own tests use.
func Equivalent(a, b *AIG, budget int64) (bool, bool) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, true
	}
	// Build a joint miter graph: copy both into one AIG over shared PIs.
	m := New("miter")
	pis := make([]Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI(a.PIName(i))
	}
	la := copyInto(a, m, pis)
	lb := copyInto(b, m, pis)
	for i := 0; i < a.NumPOs(); i++ {
		eq, proven := ProveEqual(m, la[i], lb[i], budget)
		if !proven {
			return false, false
		}
		if !eq {
			return false, true
		}
	}
	return true, true
}

// copyInto replicates src's logic into dst over the provided PI literals and
// returns dst literals for src's POs.
func copyInto(src, dst *AIG, pis []Lit) []Lit {
	m := make([]Lit, src.NumVars())
	m[0] = False
	for i := 0; i < src.NumPIs(); i++ {
		m[i+1] = pis[i]
	}
	for v := src.NumPIs() + 1; v < src.NumVars(); v++ {
		f0, f1 := src.Fanins(v)
		a := m[f0.Var()].NotIf(f0.IsCompl())
		b := m[f1.Var()].NotIf(f1.IsCompl())
		m[v] = dst.And(a, b)
	}
	out := make([]Lit, src.NumPOs())
	for i := 0; i < src.NumPOs(); i++ {
		po := src.PO(i)
		out[i] = m[po.Var()].NotIf(po.IsCompl())
	}
	return out
}
