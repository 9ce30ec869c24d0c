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

// noReason marks a variable with no antecedent clause: a decision, an
// assumption or a root-level unit.
const noReason = int32(-1)

// watcher is one entry of a literal's watch list: the clause's reference
// into the store and, for a binary clause, its other literal, so a binary
// clause is propagated without touching the store. other is -1 for a
// clause of three or more literals.
type watcher struct {
	ref   int32
	other Lit
}

// Solver is a CDCL SAT solver. Zero value is not usable; call New. Reset
// returns a solver to its New(0) state while keeping every allocation, so a
// caller that proves many small formulas in sequence reuses one solver.
//
// Clauses live in one flat store: a clause's reference is the offset of
// its length, which its literals follow, so watch lists and reasons hold
// int32 references instead of pointers and the garbage collector has
// nothing to scan.
type Solver struct {
	clauses  []Lit       // clause store: length, then literals, per clause
	watches  [][]watcher // literal p -> watchers of the clauses watching ¬p
	vals     []int8      // literal -> +1 true, -1 false, 0 unassigned
	level    []int32     // var -> decision level
	reasons  []int32     // var -> reference of the antecedent clause
	activity []float64
	polarity []bool // phase saving
	// decision stamps each variable with the decision epoch in which its
	// flag was last set (SetDecision): it is a decision variable while its
	// stamp is the current epoch, so ClearDecisions clears every flag by
	// advancing the epoch. Stamp 0 is never current.
	decision []uint32
	epoch    uint32
	seen     []bool // analyze scratch; all false between conflicts
	learnt   []Lit  // analyze scratch
	heap     varHeap
	trail    []Lit
	trailLim []int
	qhead    int
	varInc   float64

	// ConflictBudget bounds the search effort; <0 means unlimited.
	ConflictBudget int64
	// BeforeDecisions, when set, is called by Solve the first time it
	// looks for a decision variable, at most once per Solve. A caller that
	// chooses the decision variables (SetDecision) can do that work there
	// and skip it for the solves that end in propagation alone.
	BeforeDecisions func()
	conflicts       int64
	rootUnsat       bool
}

// New returns a solver pre-sized for n variables.
func New(n int) *Solver {
	s := &Solver{varInc: 1, ConflictBudget: -1, epoch: 1}
	s.Grow(n)
	return s
}

// Reset returns the solver to exactly the state New(0) gives: no
// variables, no clauses, default budget and activity increments. Every
// backing array (per-variable slices, watch lists, the heap, the clause
// store) is kept for reuse, so a warm solver allocates only when a formula
// outgrows the largest one it has held.
func (s *Solver) Reset() {
	s.clauses = s.clauses[:0]
	s.watches = s.watches[:0] // Grow truncates each list as it reappears
	s.vals = s.vals[:0]
	s.level = s.level[:0]
	s.reasons = s.reasons[:0]
	s.activity = s.activity[:0]
	s.polarity = s.polarity[:0]
	s.decision = s.decision[:0]
	s.epoch = 1
	s.seen = s.seen[:0]
	s.heap.data = s.heap.data[:0]
	s.heap.indices = s.heap.indices[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc = 1
	s.ConflictBudget = -1
	s.BeforeDecisions = nil
	s.conflicts = 0
	s.rootUnsat = false
}

// Grow ensures the solver knows about at least n variables.
func (s *Solver) Grow(n int) {
	for s.NumVars() < n {
		s.vals = append(s.vals, 0, 0)
		s.level = append(s.level, 0)
		s.reasons = append(s.reasons, noReason)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, false)
		s.decision = append(s.decision, s.epoch)
		s.seen = append(s.seen, false)
		if w := len(s.watches); w+2 <= cap(s.watches) {
			// Reuse the watch lists a Reset left behind, emptied in place.
			s.watches = s.watches[:w+2]
			s.watches[w] = s.watches[w][:0]
			s.watches[w+1] = s.watches[w+1][:0]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
		s.heap.push(s, s.NumVars()-1)
	}
}

// SetDecision sets whether the search may branch on v, as MiniSat's
// setDecisionVar does. Every variable starts as a decision variable, so a
// solver whose flags were never cleared runs the unrestricted search. With
// some flags off, Solve answers Sat once every decision variable is
// assigned without conflict: the other variables stay unassigned unless
// propagation reaches them, and the answer is a model of the whole formula
// only where the caller knows that any such partial assignment extends to
// one. Unsat and Unknown keep their meaning. Flags may change between
// Solve calls and from BeforeDecisions.
func (s *Solver) SetDecision(v int, on bool) {
	if !on {
		s.decision[v] = 0
		return
	}
	s.decision[v] = s.epoch
	if s.vals[2*v] == 0 {
		s.heap.push(s, v)
	}
}

// ClearDecisions turns every variable's decision flag off at once;
// variables added afterwards start with theirs on.
func (s *Solver) ClearDecisions() {
	s.epoch++
	if s.epoch == 0 { // wrapped: retire every stamp
		clear(s.decision)
		s.epoch = 1
	}
}

// Decision reports whether the search may branch on v.
func (s *Solver) Decision(v int) bool { return s.decision[v] == s.epoch }

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.vals) / 2 }

// AddVar adds a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	s.Grow(s.NumVars() + 1)
	return s.NumVars() - 1
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
			switch s.vals[l] {
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
		if s.vals[lits[0]] == -1 {
			s.rootUnsat = true
			return false
		}
		if s.vals[lits[0]] == 0 {
			s.enqueue(lits[0], noReason)
			if s.propagate() != noReason {
				s.rootUnsat = true
				return false
			}
		}
		return true
	}
	s.attach(s.alloc(lits))
	return true
}

// alloc copies a clause into the store and returns its reference.
func (s *Solver) alloc(lits []Lit) int32 {
	ref := int32(len(s.clauses))
	s.clauses = append(s.clauses, Lit(len(lits)))
	s.clauses = append(s.clauses, lits...)
	return ref
}

// lits returns a stored clause's literals, in place.
func (s *Solver) lits(ref int32) []Lit {
	return s.clauses[ref+1 : ref+1+int32(s.clauses[ref])]
}

// attach watches a stored clause of two or more literals on its first two.
func (s *Solver) attach(ref int32) {
	c := s.lits(ref)
	w0, w1 := watcher{ref, -1}, watcher{ref, -1}
	if len(c) == 2 {
		w0.other, w1.other = c[1], c[0]
	}
	s.watches[c[0].Not()] = append(s.watches[c[0].Not()], w0)
	s.watches[c[1].Not()] = append(s.watches[c[1].Not()], w1)
}

func (s *Solver) enqueue(l Lit, from int32) {
	s.vals[l], s.vals[l.Not()] = 1, -1
	v := l.Var()
	s.level[v] = int32(len(s.trailLim))
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the reference of a
// conflicting clause or noReason.
//
// A clause of three or more literals is visited as in the classic
// two-watched-literal scheme: its falsified watch is swapped into slot 1,
// a satisfied slot 0 keeps it, a non-false literal further on becomes the
// new watch. Those swaps decide the literal order analyze later reads.
// A binary clause never moves and is decided from its watcher alone; only
// when it conflicts is it written back to the store as (other, falsified),
// the order the same swap would have left.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falsified := p.Not()
		ws := s.watches[p]
		j := 0
		confl := noReason
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			ws[j] = w
			j++
			if w.other >= 0 {
				switch s.vals[w.other] {
				case 1:
				case -1:
					s.clauses[w.ref+1], s.clauses[w.ref+2] = w.other, falsified
					confl = w.ref
				default:
					s.enqueue(w.other, w.ref)
				}
			} else {
				c := s.lits(w.ref)
				if c[0] == falsified {
					c[0], c[1] = c[1], c[0]
				}
				if s.vals[c[0]] == 1 {
					continue
				}
				for k := 2; k < len(c); k++ {
					if s.vals[c[k]] != -1 {
						c[1], c[k] = c[k], c[1]
						s.watches[c[1].Not()] = append(s.watches[c[1].Not()], w)
						j-- // moved: no longer watched here
						break
					}
				}
				if c[1] != falsified {
					continue // found a new watch
				}
				if s.vals[c[0]] == -1 {
					confl = w.ref
				} else {
					s.enqueue(c[0], w.ref)
				}
			}
			if confl != noReason {
				j += copy(ws[j:], ws[i+1:])
				break
			}
		}
		s.watches[p] = ws[:j]
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	back := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= back; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = !l.Neg()
		s.vals[l], s.vals[l.Not()] = 0, 0
		if s.Decision(v) {
			s.heap.push(s, v)
		}
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
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	seen := s.seen
	learnt := append(s.learnt[:0], 0) // slot 0 holds the UIP, set below
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	for {
		for _, q := range s.lits(confl) {
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
		if s.vals[2*v] == 0 && s.Decision(v) {
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
	if s.propagate() != noReason {
		return Unsat
	}
	restartLimit := int64(100)

	// Apply assumptions as pseudo-decisions.
	for _, a := range assumptions {
		switch s.vals[a] {
		case -1:
			s.cancelUntil(0)
			return Unsat
		case 1:
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(a, noReason)
		if s.propagate() != noReason {
			s.cancelUntil(0)
			return Unsat
		}
	}
	assumeLvl := s.decisionLevel()

	before := s.BeforeDecisions
	for {
		confl := s.propagate()
		if confl != noReason {
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
				if s.vals[learnt[0]] == -1 {
					return Unsat
				}
				if s.vals[learnt[0]] == 0 {
					s.enqueue(learnt[0], noReason)
				}
			} else {
				ref := s.alloc(learnt)
				if len(learnt) >= 2 {
					s.attach(ref)
				}
				if s.vals[learnt[0]] == 0 {
					s.enqueue(learnt[0], ref)
				}
			}
			s.varInc /= 0.95
			if s.conflicts%restartLimit == 0 {
				restartLimit += restartLimit / 2
				s.cancelUntil(assumeLvl)
			}
			continue
		}
		if before != nil {
			before()
			before = nil
		}
		l, ok := s.pickBranch()
		if !ok {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, noReason)
	}
}

// Value returns the model value of a variable after Sat (true/false); only
// meaningful immediately after a Sat result. A variable that is not a
// decision variable (SetDecision) and that propagation left unassigned
// reads false.
func (s *Solver) Value(v int) bool { return s.vals[2*v] == 1 }
