// Package sat implements a compact CDCL SAT solver with two-watched-literal
// propagation, first-UIP conflict learning, VSIDS-style activity ordering,
// and restarts. It is the reasoning engine behind the don't-care-based
// resubstitution (mfs) and the combinational equivalence checks used to
// validate every optimization pass, mirroring the role SAT solvers play
// inside ABC.
package sat

import (
	"slices"

	"repro/internal/obs"
)

// Lit is a literal: variable<<1 | sign (sign 1 = negated). Variables are
// 0-based.
type Lit int32

// L builds a literal from a 0-based variable and a negation flag.
func L(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complement.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

const noReason = int32(-1)

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// Solver is a CDCL SAT solver. Zero value is not usable; call New. Reset
// returns a solver to its New(0) state while keeping every allocation, so a
// caller that proves many small formulas in sequence reuses one solver.
type Solver struct {
	clauses  []*clause
	arena    clauseArena
	watches  [][]*clause // literal -> watching clauses
	assign   []int8      // var -> 0 unassigned, +1 true, -1 false
	level    []int32     // var -> decision level
	reason   []int32     // var -> clause index in trailReasons
	reasons  []*clause   // aligned with vars: antecedent clause
	activity []float64
	polarity []bool // phase saving
	seen     []bool // analyze scratch; all false between conflicts
	learnt   []Lit  // analyze scratch
	heap     varHeap
	trail    []Lit
	trailLim []int
	qhead    int
	varInc   float64
	claInc   float64

	// ConflictBudget bounds the search effort; <0 means unlimited.
	ConflictBudget int64
	conflicts      int64
	rootUnsat      bool
}

// New returns a solver pre-sized for n variables.
func New(n int) *Solver {
	s := &Solver{varInc: 1, claInc: 1, ConflictBudget: -1}
	s.Grow(n)
	return s
}

// Reset returns the solver to exactly the state New(0) gives: no
// variables, no clauses, default budget and activity increments. Every
// backing array (per-variable slices, watch lists, the heap, the clause
// arena) is kept for reuse, so a warm solver allocates only when a formula
// outgrows the largest one it has held.
func (s *Solver) Reset() {
	s.clauses = s.clauses[:0]
	s.arena.reset()
	s.watches = s.watches[:0] // Grow truncates each list as it reappears
	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.reasons = s.reasons[:0]
	s.activity = s.activity[:0]
	s.polarity = s.polarity[:0]
	s.seen = s.seen[:0]
	s.heap.data = s.heap.data[:0]
	s.heap.indices = s.heap.indices[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc, s.claInc = 1, 1
	s.ConflictBudget = -1
	s.conflicts = 0
	s.rootUnsat = false
}

// Grow ensures the solver knows about at least n variables.
func (s *Solver) Grow(n int) {
	for len(s.assign) < n {
		s.assign = append(s.assign, 0)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, noReason)
		s.reasons = append(s.reasons, nil)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, false)
		s.seen = append(s.seen, false)
		if w := len(s.watches); w+2 <= cap(s.watches) {
			// Reuse the watch lists a Reset left behind, emptied in place.
			s.watches = s.watches[:w+2]
			s.watches[w] = s.watches[w][:0]
			s.watches[w+1] = s.watches[w+1][:0]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
		s.heap.push(s, len(s.assign)-1)
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

// AddVar adds a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	s.Grow(len(s.assign) + 1)
	return len(s.assign) - 1
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// AddClause adds a clause; it returns false if the formula became trivially
// unsatisfiable (the solver then answers Unsat from Solve as well). It may
// be called between Solve calls: the solver first backtracks to the root
// level, and since clauses are only ever added (never removed), incremental
// strengthening of the formula is sound. This is what the equivalence
// checker's SAT sweeping relies on to encode AIG cones lazily across many
// prove/refute queries on one solver.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.rootUnsat {
		return false
	}
	s.cancelUntil(0)
	// Deduplicate and detect tautology.
	slices.Sort(lits)
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology
		}
		// Drop already-false root-level literals; satisfied clause is a no-op.
		if len(s.trailLim) == 0 {
			switch s.value(l) {
			case 1:
				return true
			case -1:
				continue
			}
		}
		out = append(out, l)
		prev = l
	}
	lits = out
	switch len(lits) {
	case 0:
		s.rootUnsat = true
		return false
	case 1:
		if s.value(lits[0]) == -1 {
			s.rootUnsat = true
			return false
		}
		if s.value(lits[0]) == 0 {
			s.enqueue(lits[0], nil)
			if s.propagate() != nil {
				s.rootUnsat = true
				return false
			}
		}
		return true
	}
	s.attach(s.arena.alloc(lits, false))
	return true
}

func (s *Solver) attach(c *clause) {
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.level[v] = int32(len(s.trailLim))
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if confl != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the falsified literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			// Search replacement watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != -1 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == -1 {
				confl = c
				continue
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	back := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= back; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == 1
		s.assign[v] = 0
		s.reasons[v] = nil
		s.heap.push(s, v)
	}
	s.trail = s.trail[:back]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.heap.rebuild(s)
		return
	}
	s.heap.bump(s, v)
}

// analyze performs first-UIP learning, returning the learnt clause (solver
// scratch, valid until the next conflict) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	seen := s.seen
	learnt := append(s.learnt[:0], 0) // slot 0 holds the UIP, set below
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	for {
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal to expand on the trail.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reasons[v]
	}
	// Every current-level mark was cleared as the trail was walked; clear
	// the lower-level ones so seen is all false again.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learnt = learnt
	// Backtrack level: second-highest level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	return learnt, bt
}

func (s *Solver) pickBranch() (Lit, bool) {
	for {
		v, ok := s.heap.popMax(s)
		if !ok {
			return 0, false
		}
		if s.assign[v] == 0 {
			return L(v, !s.polarity[v]), true
		}
	}
}

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.conflicts = 0
	if obs.MetricsEnabled() {
		// Batched at call granularity: one counter bump per Solve, plus the
		// conflict total accumulated during this search, flushed on return.
		obs.C("sat.solves").Inc()
		defer func() { obs.C("sat.conflicts").Add(s.conflicts) }()
	}
	if s.rootUnsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		return Unsat
	}
	restartLimit := int64(100)

	// Apply assumptions as pseudo-decisions.
	for _, a := range assumptions {
		switch s.value(a) {
		case -1:
			s.cancelUntil(0)
			return Unsat
		case 1:
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(a, nil)
		if s.propagate() != nil {
			s.cancelUntil(0)
			return Unsat
		}
	}
	assumeLvl := s.decisionLevel()

	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			if s.ConflictBudget >= 0 && s.conflicts > s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.decisionLevel() <= assumeLvl {
				s.cancelUntil(0)
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			if bt < assumeLvl {
				bt = assumeLvl
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 && s.decisionLevel() == 0 {
				if s.value(learnt[0]) == -1 {
					return Unsat
				}
				if s.value(learnt[0]) == 0 {
					s.enqueue(learnt[0], nil)
				}
			} else {
				c := s.arena.alloc(learnt, true)
				if len(learnt) >= 2 {
					s.attach(c)
				}
				if s.value(learnt[0]) == 0 {
					s.enqueue(learnt[0], c)
				}
			}
			s.varInc /= 0.95
			if s.conflicts%restartLimit == 0 {
				restartLimit += restartLimit / 2
				s.cancelUntil(assumeLvl)
			}
			continue
		}
		l, ok := s.pickBranch()
		if !ok {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// clauseArena hands out clause headers and literal storage from chunks that
// never move, so *clause pointers and lits slices stay valid until reset,
// which rewinds to the first chunk and keeps them all for reuse.
type clauseArena struct {
	hdrs  [][]clause // fixed-size chunks of headers
	nHdr  int        // headers handed out since reset
	lits  [][]Lit    // literal chunks, each at least litChunk long
	chunk int        // current literal chunk
	off   int        // next free literal in lits[chunk]
}

const (
	hdrChunk = 256
	litChunk = 4096
)

// alloc returns a new clause holding a copy of lits.
func (a *clauseArena) alloc(lits []Lit, learnt bool) *clause {
	ci, hi := a.nHdr/hdrChunk, a.nHdr%hdrChunk
	if ci == len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]clause, hdrChunk))
	}
	a.nHdr++
	n := len(lits)
	for a.chunk < len(a.lits) && a.off+n > len(a.lits[a.chunk]) {
		a.chunk++
		a.off = 0
	}
	if a.chunk == len(a.lits) {
		a.lits = append(a.lits, make([]Lit, max(litChunk, n)))
	}
	dst := a.lits[a.chunk][a.off : a.off+n : a.off+n]
	a.off += n
	copy(dst, lits)
	c := &a.hdrs[ci][hi]
	*c = clause{lits: dst, learnt: learnt}
	return c
}

func (a *clauseArena) reset() {
	a.nHdr, a.chunk, a.off = 0, 0, 0
}

// Value returns the model value of a variable after Sat (true/false); only
// meaningful immediately after a Sat result.
func (s *Solver) Value(v int) bool { return s.assign[v] == 1 }
