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
	// fanins holds, per SAT variable, the SAT variables of the two fanins
	// its clauses define it by, or -1 twice: an input, the constant, a free
	// cut point, or a variable the builder did not make. decideOnly walks
	// cones through it.
	fanins [][2]int32

	// Prove's decision set (see decideOnly): the SAT variables of the
	// pending query, the solver hook that restricts decisions to their
	// cones, and the cone walk's stack.
	query    [2]int32
	restrict func()
	walk     []int32
}

// NewCNFBuilder returns a builder over the given graph and solver.
func NewCNFBuilder(g *AIG, s *sat.Solver) *CNFBuilder {
	b := &CNFBuilder{G: g, S: s}
	b.restrict = func() {
		b.S.BeforeDecisions = nil // once per query
		b.decideOnly(b.query[0], b.query[1])
	}
	return b
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
	b.fanins = b.fanins[:0]
	b.S.Reset()
}

// SatVar returns the SAT variable encoding the given AIG variable, encoding
// its transitive fanin cone on first use (up to Limit AND nodes).
func (b *CNFBuilder) SatVar(v int) int {
	if v < len(b.varMap) && b.varMap[v] != 0 {
		return int(b.varMap[v]) - 1
	}
	if v >= len(b.varMap) {
		// Amortized growth: the sweep engine's graph grows under the builder.
		grown := make([]int32, max(v+1, 2*len(b.varMap)))
		copy(grown, b.varMap)
		b.varMap = grown
	}
	sv := b.S.AddVar()
	b.varMap[v] = int32(sv + 1)
	b.mapped = append(b.mapped, v)
	for len(b.fanins) <= sv {
		b.fanins = append(b.fanins, [2]int32{-1, -1})
	}
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
		b.fanins[sv] = [2]int32{int32(a.Var()), int32(c.Var())}
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

// EncodeInputs gives every primary input its SAT variable, in input order.
// A caller that reads InputModel encodes the inputs first, so their SAT
// variables come before any cone's.
func (b *CNFBuilder) EncodeInputs() {
	for i := 1; i <= b.G.NumPIs(); i++ {
		b.SatVar(i)
	}
}

// ProveResult is the outcome of one SAT equivalence query.
type ProveResult int

// Prove outcomes.
const (
	Proven    ProveResult = iota // UNSAT both directions: functionally equal
	Refuted                      // SAT: a distinguishing input pattern exists
	Undecided                    // conflict budget exhausted, or a windowed SAT answer
)

// Prove is the two-sided miter query x ≡ y on the builder's solver. It
// encodes x's cone, then y's (reusing whatever is already encoded), and
// solves x ∧ ¬y, then ¬x ∧ y, under assumptions with the given conflict
// budget, deciding only on the SAT variables of the two cones: before its
// first decision, the first solve that branches runs decideOnly.
// It returns the verdict and the number of solves made. A windowed builder
// (Limit reached) reports a satisfiable miter as Undecided: its free cut
// points may make the model spurious. After Refuted, InputModel reads the
// distinguishing assignment.
//
// The restriction is sound. Unsat comes from conflicts, whatever the
// decisions. A conflict-free state that assigns every cone variable
// extends to a model of the whole formula: keep the cone inputs, give the
// other inputs any values and simulate. Cone gates depend only on cone
// inputs, so they keep their values and x ≠ y; every gate's clauses hold;
// learnt clauses are implied by the gate clauses. A solver that holds
// only the two cones (one Reset before each query) searches exactly as
// without the restriction.
func (b *CNFBuilder) Prove(x, y Lit, budget int64) (ProveResult, int) {
	lx := b.SatLit(x)
	ly := b.SatLit(y)
	windowed := b.Limit > 0 && b.nAnds >= b.Limit
	b.S.ConflictBudget = budget
	b.query = [2]int32{int32(lx.Var()), int32(ly.Var())}
	b.S.BeforeDecisions = b.restrict
	defer func() { b.S.BeforeDecisions = nil }()
	for solves, miter := range [2][2]sat.Lit{{lx, ly.Not()}, {lx.Not(), ly}} {
		switch b.S.Solve(miter[0], miter[1]) {
		case sat.Sat:
			if windowed {
				return Undecided, solves + 1
			}
			return Refuted, solves + 1
		case sat.Unknown:
			return Undecided, solves + 1
		}
	}
	return Proven, 2
}

// decideOnly makes the cones of SAT variables x and y, as the builder
// encoded them, the solver's only decision variables. It clears every
// flag, then walks the two cones through fanins, which end at inputs and
// free cut points, and sets theirs; a set flag marks a variable as
// visited. It allocates nothing once its stack has grown. Prove runs it
// from the solver's BeforeDecisions hook, so a query whose solves all end
// in propagation (most of a sweep's queries) skips the walk.
func (b *CNFBuilder) decideOnly(x, y int32) {
	s := b.S
	s.ClearDecisions()
	walk := b.walk[:0]
	for _, sv := range [2]int32{x, y} {
		if !s.Decision(int(sv)) {
			s.SetDecision(int(sv), true)
			walk = append(walk, sv)
		}
	}
	for len(walk) > 0 {
		f := b.fanins[walk[len(walk)-1]]
		walk = walk[:len(walk)-1]
		if f[0] < 0 {
			continue
		}
		for _, sv := range f {
			if !s.Decision(int(sv)) {
				s.SetDecision(int(sv), true)
				walk = append(walk, sv)
			}
		}
	}
	b.walk = walk
}

// InputModel returns the primary-input assignment of the solver's last
// satisfiable solve. Call it on a builder whose inputs EncodeInputs
// encoded, right after Prove returns Refuted. Inputs outside the query's
// cones cannot change either literal; the search does not decide them, so
// they read false unless propagation assigned them.
func (b *CNFBuilder) InputModel() []bool {
	cex := make([]bool, b.G.NumPIs())
	for i := range cex {
		cex[i] = b.S.Value(b.SatVar(i + 1))
	}
	return cex
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
