package aig

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// TestConeLocalProveMatchesFresh: on seeded random graphs, a few dozen
// pair queries on one incremental builder (inputs encoded first, as the
// CEC sweep uses it) each give the verdict of a fresh builder and, when
// refuted, return an input model under which simulation tells the pair
// apart; a query whose search branches decides on exactly the SAT
// variables of the pair's cone.
func TestConeLocalProveMatchesFresh(t *testing.T) {
	var proven, refuted, walks int
	for seed := int64(1); seed <= 16; seed++ {
		g := randomAIG(seed, 10, 160, 4)
		rng := rand.New(rand.NewSource(seed))
		classes := simClasses(g, rng)
		cnf := NewCNFBuilder(g, sat.New(0))
		cnf.EncodeInputs()
		restrict, walked := cnf.restrict, false
		cnf.restrict = func() { walked = true; restrict() }
		for q := 0; q < 40; q++ {
			x, y := queryPair(g, rng, classes)
			walked = false
			res, _ := cnf.Prove(x, y, -1)
			fres, _ := NewCNFBuilder(g, sat.New(0)).Prove(x, y, -1)
			if res != fres {
				t.Fatalf("seed %d query %d: Prove(%d, %d) = %v, fresh builder %v", seed, q, x, y, res, fres)
			}
			if walked {
				checkDecisionSet(t, cnf, x, y)
				walks++
			}
			switch res {
			case Proven:
				proven++
			case Refuted:
				refuted++
				in := make([]uint64, g.NumPIs())
				for i, bit := range cnf.InputModel() {
					if bit {
						in[i] = ^uint64(0)
					}
				}
				vals := g.SimWords(in)
				lit := func(l Lit) bool { return (vals[l.Var()]&1 != 0) != l.IsCompl() }
				if lit(x) == lit(y) {
					t.Fatalf("seed %d query %d: the model of refuted %d ≡ %d gives both %v", seed, q, x, y, lit(x))
				}
			default:
				t.Fatalf("seed %d query %d: unbudgeted Prove(%d, %d) undecided", seed, q, x, y)
			}
		}
	}
	if proven == 0 || refuted == 0 || walks == 0 {
		t.Fatalf("%d proven, %d refuted, %d cones walked: the comparison needs all three", proven, refuted, walks)
	}
}

// TestWindowedProveDecidesOnItsWindow: a windowed builder reset before each
// query holds only the two cones up to their free cut points, so a cone
// walk that stops there leaves every SAT variable it encoded a decision
// variable, as it was before decisions were restricted.
func TestWindowedProveDecidesOnItsWindow(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randomAIG(seed, 10, 300, 4)
		rng := rand.New(rand.NewSource(seed))
		cnf := NewCNFBuilder(g, sat.New(0))
		cnf.Limit = 12
		restrict, walked := cnf.restrict, false
		cnf.restrict = func() { walked = true; restrict() }
		windowed := 0
		for q := 0; q < 30; q++ {
			x, y := queryPair(g, rng, nil)
			cnf.Reset()
			walked = false
			cnf.Prove(x, y, 50)
			if walked && cnf.nAnds >= cnf.Limit {
				windowed++
			}
			for sv := 0; sv < cnf.S.NumVars(); sv++ {
				if !cnf.S.Decision(sv) {
					t.Fatalf("seed %d query %d: SAT variable %d of the window is not a decision variable", seed, q, sv)
				}
			}
		}
		if windowed == 0 {
			t.Fatalf("seed %d: no query that reached the window limit branched", seed)
		}
	}
}

// checkDecisionSet demands that the solver's decision variables are
// exactly the SAT variables of the AIG variables in the cones of x and y,
// which a reference walk over the graph collects.
func checkDecisionSet(t *testing.T, cnf *CNFBuilder, x, y Lit) {
	t.Helper()
	cone := map[int]bool{}
	var visit func(v int)
	visit = func(v int) {
		sv := int(cnf.varMap[v]) - 1
		if cone[sv] {
			return
		}
		cone[sv] = true
		if cnf.G.IsAnd(v) {
			f0, f1 := cnf.G.Fanins(v)
			visit(f0.Var())
			visit(f1.Var())
		}
	}
	visit(x.Var())
	visit(y.Var())
	for sv := 0; sv < cnf.S.NumVars(); sv++ {
		if cnf.S.Decision(sv) != cone[sv] {
			t.Fatalf("Prove(%d, %d): SAT variable %d decides %v, in the cone %v", x, y, sv, cnf.S.Decision(sv), cone[sv])
		}
	}
}

// simClasses groups g's variables by a 128-pattern simulation signature,
// phase-normalized, and returns each variable's class, so that queryPair
// can ask mostly plausible merges.
func simClasses(g *AIG, rng *rand.Rand) [][]int {
	in0, in1 := make([]uint64, g.NumPIs()), make([]uint64, g.NumPIs())
	for i := range in0 {
		in0[i], in1[i] = rng.Uint64(), rng.Uint64()
	}
	w0, w1 := g.SimWords(in0), g.SimWords(in1)
	byKey := map[[2]uint64][]int{}
	for v := range w0 {
		k := [2]uint64{w0[v], w1[v]}
		if k[0]&1 != 0 {
			k = [2]uint64{^k[0], ^k[1]}
		}
		byKey[k] = append(byKey[k], v)
	}
	classes := make([][]int, g.NumVars())
	for _, class := range byKey {
		for _, v := range class {
			classes[v] = class
		}
	}
	return classes
}

// queryPair picks an AND node and, half of the time when classes are
// given, a member of its simulation class in either phase, otherwise any
// variable, the constant included.
func queryPair(g *AIG, rng *rand.Rand, classes [][]int) (Lit, Lit) {
	v := g.NumPIs() + 1 + rng.Intn(g.NumNodes())
	x := MakeLit(v, false)
	if classes != nil && rng.Intn(2) == 0 {
		class := classes[v]
		return x, MakeLit(class[rng.Intn(len(class))], rng.Intn(2) == 0)
	}
	return x, MakeLit(rng.Intn(g.NumVars()), rng.Intn(2) == 0)
}
