package sat

import (
	"math/rand"
	"testing"
)

// solveTrace is what a sequence of incremental solves reveals: per Solve,
// the verdict, the conflicts spent and (on Sat) the full model.
type solveTrace struct {
	status    []Status
	conflicts []int64
	models    [][]bool
}

// runRandomCNF loads a seeded random 3-CNF near the satisfiability
// threshold into s (which must hold no variables) and runs a few solves
// under random assumptions and conflict budgets, interleaved with extra
// clauses so later solves start from learned state.
func runRandomCNF(s *Solver, seed int64) solveTrace {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(50)
	s.Grow(n)
	lit := func() Lit { return L(rng.Intn(n), rng.Intn(2) == 0) }
	addClauses := func(m int) {
		for i := 0; i < m; i++ {
			s.AddClause(lit(), lit(), lit())
		}
	}
	addClauses(n * 4)
	var tr solveTrace
	for q := 0; q < 4; q++ {
		if q == 2 {
			addClauses(n / 4)
		}
		s.ConflictBudget = -1
		if rng.Intn(3) == 0 {
			s.ConflictBudget = int64(rng.Intn(20))
		}
		assumptions := make([]Lit, rng.Intn(4))
		for i := range assumptions {
			assumptions[i] = lit()
		}
		st := s.Solve(assumptions...)
		tr.status = append(tr.status, st)
		tr.conflicts = append(tr.conflicts, s.conflicts)
		var model []bool
		if st == Sat {
			model = make([]bool, s.NumVars())
			for v := range model {
				model[v] = s.Value(v)
			}
		}
		tr.models = append(tr.models, model)
	}
	return tr
}

// TestResetMatchesNew: a solver reused through Reset answers every query
// exactly as a fresh New(0) does — same verdicts, same conflict counts,
// same models — across rounds of formulas of varying size, so no state of
// an earlier round leaks into the search.
func TestResetMatchesNew(t *testing.T) {
	var satN, unsatN, unknownN int
	for base := int64(1); base <= 40; base++ {
		reused := New(0)
		for round := int64(0); round < 4; round++ {
			seed := base*100 + round
			want := runRandomCNF(New(0), seed)
			reused.Reset()
			if reused.NumVars() != 0 || len(reused.clauses) != 0 || len(reused.trail) != 0 ||
				reused.ConflictBudget != -1 || reused.varInc != 1 || reused.rootUnsat {
				t.Fatalf("seed %d: Reset left state behind", seed)
			}
			got := runRandomCNF(reused, seed)
			for q := range want.status {
				if got.status[q] != want.status[q] || got.conflicts[q] != want.conflicts[q] {
					t.Fatalf("seed %d solve %d: reused %v after %d conflicts, fresh %v after %d",
						seed, q, got.status[q], got.conflicts[q], want.status[q], want.conflicts[q])
				}
				for v := range want.models[q] {
					if got.models[q][v] != want.models[q][v] {
						t.Fatalf("seed %d solve %d: models differ at variable %d", seed, q, v)
					}
				}
				switch want.status[q] {
				case Sat:
					satN++
				case Unsat:
					unsatN++
				default:
					unknownN++
				}
			}
		}
	}
	// The rounds must exercise every verdict, or the comparison is vacuous.
	if satN == 0 || unsatN == 0 || unknownN == 0 {
		t.Fatalf("verdict mix sat=%d unsat=%d unknown=%d leaves a path untested", satN, unsatN, unknownN)
	}
	t.Logf("sat=%d unsat=%d unknown=%d", satN, unsatN, unknownN)
}

// TestWarmResetSolveAllocatesNothing: once a solver has held a formula,
// Reset plus re-encoding and solving it again reuses every allocation.
func TestWarmResetSolveAllocatesNothing(t *testing.T) {
	s := New(0)
	run := func() {
		s.Reset()
		s.Grow(6)
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
		if s.Solve() != Unsat {
			t.Fatal("pigeonhole 3/2 must be Unsat")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm Reset+solve allocated %.1f times", allocs)
	}
}
