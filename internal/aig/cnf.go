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
	Limit  int     // max AND nodes encoded; 0 = unlimited
	varMap []int32 // AIG variable -> SAT variable + 1; 0 = not encoded
	mapped []int   // AIG variables encoded since the last Reset
	nAnds  int
}

// NewCNFBuilder returns a builder over the given graph and solver.
func NewCNFBuilder(g *AIG, s *sat.Solver) *CNFBuilder {
	return &CNFBuilder{G: g, S: s}
}

// Reset forgets every encoding and resets the solver (sat.Solver.Reset),
// keeping all allocations: the next proof on the same graph starts from
// the state a fresh builder over sat.New(0) would have. Limit is kept.
func (b *CNFBuilder) Reset() {
	for _, v := range b.mapped {
		b.varMap[v] = 0
	}
	b.mapped = b.mapped[:0]
	b.nAnds = 0
	b.S.Reset()
}

// SatVar returns the SAT variable encoding the given AIG variable, encoding
// its transitive fanin cone on first use (up to Limit AND nodes).
func (b *CNFBuilder) SatVar(v int) int {
	if v < len(b.varMap) && b.varMap[v] != 0 {
		return int(b.varMap[v]) - 1
	}
	if v >= len(b.varMap) {
		// Amortized growth: the CEC sweeper's graph grows under the builder.
		grown := make([]int32, max(v+1, 2*len(b.varMap)))
		copy(grown, b.varMap)
		b.varMap = grown
	}
	sv := b.S.AddVar()
	b.varMap[v] = int32(sv + 1)
	b.mapped = append(b.mapped, v)
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

// ProveEqualWindow checks whether two literals of the same AIG are
// functionally equivalent over all PI assignments, on a one-shot builder:
// at most windowNodes AND nodes are encoded (0 = unlimited) and each query
// gets the given conflict budget. It returns (equal, proven); proven is
// false when the budget ran out. A windowed UNSAT verdict is sound; a
// windowed SAT verdict may be spurious, so it is reported as
// not-equal-but-proven=false when windowed.
func ProveEqualWindow(g *AIG, a, b Lit, budget int64, windowNodes int) (equal, proven bool) {
	cb := NewCNFBuilder(g, sat.New(0))
	cb.Limit = windowNodes
	return cb.proveEqual(a, b, budget)
}

// proveEqual is ProveEqualWindow on the builder's reused solver: it resets
// the builder, so the verdict is the one a fresh builder would give.
func (b *CNFBuilder) proveEqual(x, y Lit, budget int64) (equal, proven bool) {
	if x == y {
		return true, true
	}
	b.Reset()
	s := b.S
	s.ConflictBudget = budget
	lx := b.SatLit(x)
	ly := b.SatLit(y)
	windowed := b.Limit > 0 && b.nAnds >= b.Limit
	// Miter: (x != y) satisfiable?
	switch s.Solve(lx, ly.Not()) {
	case sat.Sat:
		return false, !windowed
	case sat.Unknown:
		return false, false
	}
	switch s.Solve(lx.Not(), ly) {
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
	la := CopyInto(a, m, pis)
	lb := CopyInto(b, m, pis)
	for i := 0; i < a.NumPOs(); i++ {
		eq, proven := ProveEqualWindow(m, la[i], lb[i], budget, 0)
		if !proven {
			return false, false
		}
		if !eq {
			return false, true
		}
	}
	return true, true
}

// CopyInto replicates src's logic into dst over the provided PI literals and
// returns dst literals for src's POs.
func CopyInto(src, dst *AIG, pis []Lit) []Lit {
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
