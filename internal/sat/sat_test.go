package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivialSat(t *testing.T) {
	s := New(2)
	s.AddClause(L(0, false), L(1, false))
	s.AddClause(L(0, true), L(1, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(1) {
		t.Error("x1 must be true in any model")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New(1)
	s.AddClause(L(0, false))
	if ok := s.AddClause(L(0, true)); ok {
		if got := s.Solve(); got != Unsat {
			t.Fatalf("Solve = %v, want Unsat", got)
		}
		return
	}
	// AddClause may already detect the contradiction; that's fine.
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(1)
	if s.AddClause() {
		t.Error("empty clause must report unsatisfiable")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New(1)
	if !s.AddClause(L(0, false), L(0, true)) {
		t.Error("tautology rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Errorf("Solve = %v", got)
	}
}

func TestPigeonhole32(t *testing.T) {
	// 3 pigeons into 2 holes: unsat. Vars p*2+h.
	s := New(6)
	for p := 0; p < 3; p++ {
		s.AddClause(L(p*2, false), L(p*2+1, false))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(L(p1*2+h, true), L(p2*2+h, true))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(3,2) = %v, want Unsat", got)
	}
}

func TestPigeonhole54(t *testing.T) {
	const P, H = 5, 4
	s := New(P * H)
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = L(p*H+h, false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(L(p1*H+h, true), L(p2*H+h, true))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(5,4) = %v, want Unsat", got)
	}
}

func TestAssumptions(t *testing.T) {
	// (a | b) & (!a | c)
	s := New(3)
	s.AddClause(L(0, false), L(1, false))
	s.AddClause(L(0, true), L(2, false))
	if got := s.Solve(L(0, false), L(2, true)); got != Unsat {
		t.Errorf("assuming a & !c: %v, want Unsat", got)
	}
	if got := s.Solve(L(0, false)); got != Sat {
		t.Errorf("assuming a: %v, want Sat", got)
	}
	if !s.Value(2) {
		t.Error("c must be true when a is assumed")
	}
	// Solver remains reusable after assumption solves.
	if got := s.Solve(); got != Sat {
		t.Errorf("no assumptions: %v, want Sat", got)
	}
}

func TestModelSatisfiesFormula(t *testing.T) {
	// Random 3-SAT near/below threshold; verify returned models, and
	// cross-check sat/unsat against brute force.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 4 + rng.Intn(6) // 4..9
		nCls := 2 + rng.Intn(5*nVars)
		type cl [3]Lit
		cls := make([]cl, nCls)
		s := New(nVars)
		for i := range cls {
			for k := 0; k < 3; k++ {
				cls[i][k] = L(rng.Intn(nVars), rng.Intn(2) == 1)
			}
			s.AddClause(cls[i][0], cls[i][1], cls[i][2])
		}
		verdict := s.Solve()
		// Brute force ground truth.
		truth := false
		for m := 0; m < 1<<uint(nVars); m++ {
			ok := true
			for _, c := range cls {
				sat := false
				for _, l := range c {
					bit := m&(1<<uint(l.Var())) != 0
					if bit != l.Neg() {
						sat = true
						break
					}
				}
				if !sat {
					ok = false
					break
				}
			}
			if ok {
				truth = true
				break
			}
		}
		if truth != (verdict == Sat) {
			return false
		}
		if verdict == Sat {
			// Model must satisfy all clauses.
			for _, c := range cls {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Neg() {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard-ish pigeonhole with a tiny budget must return Unknown.
	const P, H = 7, 6
	s := New(P * H)
	s.ConflictBudget = 5
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = L(p*H+h, false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(L(p1*H+h, true), L(p2*H+h, true))
			}
		}
	}
	if got := s.Solve(); got != Unknown {
		t.Errorf("budgeted solve = %v, want Unknown", got)
	}
}

func TestGrowAndAddVar(t *testing.T) {
	s := New(0)
	a := s.AddVar()
	b := s.AddVar()
	if a != 0 || b != 1 {
		t.Fatalf("AddVar gave %d,%d", a, b)
	}
	s.AddClause(L(a, false), L(b, true))
	if got := s.Solve(); got != Sat {
		t.Errorf("Solve = %v", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x0 & (x0->x1) & (x1->x2) ... forces the whole chain true.
	const n = 20
	s := New(n)
	s.AddClause(L(0, false))
	for i := 0; i+1 < n; i++ {
		s.AddClause(L(i, true), L(i+1, false))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("chain: %v", got)
	}
	for i := 0; i < n; i++ {
		if !s.Value(i) {
			t.Fatalf("x%d should be forced true", i)
		}
	}
}

func TestXorChainCNF(t *testing.T) {
	// Tseitin-encoded XOR chain with a parity constraint: satisfiable, and
	// the model must have odd parity over the inputs.
	const n = 6
	s := New(n)
	prev := 0 // x0
	aux := n
	for i := 1; i < n; i++ {
		y := s.AddVar()
		a, b := prev, i
		// y = a XOR b
		s.AddClause(L(y, true), L(a, false), L(b, false))
		s.AddClause(L(y, true), L(a, true), L(b, true))
		s.AddClause(L(y, false), L(a, true), L(b, false))
		s.AddClause(L(y, false), L(a, false), L(b, true))
		prev = y
	}
	_ = aux
	s.AddClause(L(prev, false)) // parity must be 1
	if got := s.Solve(); got != Sat {
		t.Fatalf("xor chain: %v", got)
	}
	parity := false
	for i := 0; i < n; i++ {
		if s.Value(i) {
			parity = !parity
		}
	}
	if !parity {
		t.Error("model has even parity, constraint requires odd")
	}
}

func TestSolverReuseAcrossManySolves(t *testing.T) {
	// Repeated assumption solves must not corrupt state.
	s := New(3)
	s.AddClause(L(0, false), L(1, false), L(2, false))
	for i := 0; i < 50; i++ {
		v := i % 3
		if got := s.Solve(L(v, false)); got != Sat {
			t.Fatalf("iteration %d: %v", i, got)
		}
		if !s.Value(v) {
			t.Fatalf("iteration %d: assumption not honored", i)
		}
	}
	if got := s.Solve(L(0, true), L(1, true), L(2, true)); got != Unsat {
		t.Fatalf("all-false assumptions: %v", got)
	}
}

// TestDecisionFlags: BeforeDecisions runs once in a solve that looks for a
// decision and not in one that assumption propagation refutes; a variable
// whose flag it clears is left undecided, so it reads false although its
// saved phase is true. ClearDecisions clears every flag.
func TestDecisionFlags(t *testing.T) {
	s := New(4) // a, b, c constrained; d free
	a, b, c, d := L(0, false), L(1, false), L(2, false), L(3, false)
	s.AddClause(a, b)
	s.AddClause(a.Not(), c)
	if s.Solve(d) != Sat || !s.Value(3) {
		t.Fatal("Solve(d) must be Sat with d true")
	}
	calls := 0
	s.BeforeDecisions = func() {
		calls++
		s.SetDecision(3, false)
	}
	if got := s.Solve(a, c.Not()); got != Unsat || calls != 0 {
		t.Fatalf("Solve(a, ¬c) = %v after %d hook calls, want Unsat after none", got, calls)
	}
	if got := s.Solve(); got != Sat || calls != 1 {
		t.Fatalf("Solve() = %v after %d hook calls, want Sat after one", got, calls)
	}
	if s.Decision(3) || s.Value(3) {
		t.Errorf("d: decision %v, value %v; want an undecided d reading false", s.Decision(3), s.Value(3))
	}
	if !s.Value(0) && !s.Value(1) || s.Value(0) && !s.Value(2) {
		t.Errorf("model a=%v b=%v c=%v violates a∨b, ¬a∨c", s.Value(0), s.Value(1), s.Value(2))
	}
	s.BeforeDecisions = nil
	s.SetDecision(3, true)
	if s.Solve() != Sat || !s.Value(3) {
		t.Error("d back on: the search must decide it at its saved phase, true")
	}

	// ClearDecisions turns every flag off, also across an epoch wrap; a
	// variable added afterwards starts on.
	for _, epoch := range []uint32{s.epoch, ^uint32(0)} {
		s.epoch = epoch
		s.SetDecision(0, true)
		s.ClearDecisions()
		e := s.AddVar()
		for v := 0; v < e; v++ {
			if s.Decision(v) {
				t.Errorf("epoch %d: variable %d still a decision variable after ClearDecisions", epoch, v)
			}
		}
		if !s.Decision(e) {
			t.Errorf("epoch %d: new variable %d is not a decision variable", epoch, e)
		}
	}
}
