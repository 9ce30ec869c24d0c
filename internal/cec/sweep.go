package cec

import (
	"context"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Sweep budgets. Small by design: cheap proofs merge most of the graph,
// the output budget finishes the job.
const (
	// maxRefinements caps counterexample-driven class refinements; past
	// the cap, refuted candidates are simply skipped.
	maxRefinements = 128
	// classBudget is the conflict budget of each sweeping proof attempt
	// between internal nodes.
	classBudget = 1000
)

// sweeper is the simulation-guided SAT-sweeping engine. It processes the
// joint miter graph m in topological order and maintains a reduced
// ("fraiged") graph red in which every proven-equivalent node class is
// represented once: lift maps each m variable to its literal in red.
//
// Candidate classes come from bit-parallel random simulation: nodes whose
// signatures agree (up to complement) are candidates. A candidate merge is
// first tried as a cut-local truth-table proof over red (local.go); the
// rest go to an incremental SAT solver over red, which proves or refutes
// them. Refuted candidates yield a counterexample pattern that is simulated
// back through m to split every class it distinguishes — the classic
// cex-feedback loop, run to fixpoint because each refinement strictly
// refines the partition.
type sweeper struct {
	m   *aig.AIG
	rng *rand.Rand

	// planes holds the simulation signatures word-major: planes[i] is the
	// i-th simulated word of every m variable, as aig.SimWords returned it.
	planes [][]uint64
	keys   []uint64 // m variable -> running hash of its normalized signature

	red  *aig.AIG
	lift []aig.Lit // m variable -> literal in red
	cut  cutProver // SAT-free proofs on small common cuts of red

	pool    []int            // processed, unmerged m variables (class reps)
	classes map[uint64][]int // class key -> pool members

	cnf *aig.CNFBuilder // incremental solver over red, inputs encoded first

	stats *Stats
}

func newSweeper(m *aig.AIG, opt Options, stats *Stats) *sweeper {
	s := &sweeper{
		m:       m,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		keys:    make([]uint64, m.NumVars()),
		classes: make(map[uint64][]int),
		stats:   stats,
	}
	stats.MiterNodes = m.NumNodes()

	// Initial random simulation: opt.SimWords words of 64 patterns each.
	in := make([]uint64, m.NumPIs())
	for w := 0; w < opt.SimWords; w++ {
		for i := range in {
			in[i] = s.rng.Uint64()
		}
		s.extend(m.SimWords(in))
	}
	stats.SimPatterns = 64 * opt.SimWords

	// Reduced graph and the incremental solver over it.
	s.red = aig.New(m.Name + "_red")
	s.cut.g = s.red
	s.lift = make([]aig.Lit, m.NumVars())
	s.lift[0] = aig.False
	for i := 0; i < m.NumPIs(); i++ {
		s.lift[i+1] = s.red.AddPI(m.PIName(i))
	}
	s.cnf = aig.NewCNFBuilder(s.red, sat.New(0))
	s.cnf.EncodeInputs()

	// The constant and the PIs seed the classes, so constant nodes and
	// input-equivalent nodes can merge onto them.
	s.register(0)
	for i := 1; i <= m.NumPIs(); i++ {
		s.register(i)
	}
	return s
}

// sweep runs the engine over every AND node of the miter.
func (s *sweeper) sweep(ctx context.Context) {
	_, span := obs.Start(ctx, "cec.sweep")
	defer span.End()
	first := s.m.NumPIs() + 1
	nodes := obs.Progress("cec.sweep", int64(s.m.NumVars()-first))
	defer nodes.Finish()
	for v := first; v < s.m.NumVars(); v++ {
		f0, f1 := s.m.Fanins(v)
		a := s.lift[f0.Var()].NotIf(f0.IsCompl())
		b := s.lift[f1.Var()].NotIf(f1.IsCompl())
		s.lift[v] = s.red.And(a, b)
		s.mergeOrRegister(v)
		nodes.Inc()
	}
	s.stats.ReducedNodes = s.red.NumNodes()
	span.SetAttr("miter_nodes", s.stats.MiterNodes)
	span.SetAttr("reduced_nodes", s.stats.ReducedNodes)
	span.SetAttr("refinements", s.stats.Refinements)
}

// liftLit maps an m literal into the reduced graph.
func (s *sweeper) liftLit(l aig.Lit) aig.Lit {
	return s.lift[l.Var()].NotIf(l.IsCompl())
}

// mergeOrRegister tries to merge node v onto a sim-compatible class
// representative; failing that, v becomes a representative itself.
func (s *sweeper) mergeOrRegister(v int) {
	var tried map[int]bool
	skip := func(u int) {
		if tried == nil {
			tried = make(map[int]bool)
		}
		tried[u] = true
	}
	for {
		u, phase, ok := s.candidate(v, tried)
		if !ok {
			s.register(v)
			return
		}
		target := s.lift[u].NotIf(phase)
		if target == s.lift[v] {
			// Structural hashing already merged them in the reduced graph.
			s.stats.StructMerges++
			return
		}
		if s.cut.equal(s.lift[v], target) {
			s.lift[v] = target
			s.stats.LocalMerges++
			obs.C("cec.merges").Inc()
			return
		}
		res, cex := s.prove(s.lift[v], target, classBudget)
		switch res {
		case aig.Proven:
			s.lift[v] = target
			s.stats.SATMerges++
			obs.C("cec.merges").Inc()
			return
		case aig.Refuted:
			if s.stats.Refinements < maxRefinements {
				// The counterexample pattern splits this class (and any
				// other class it happens to distinguish); re-lookup.
				s.refine(cex)
			} else {
				skip(u)
			}
		default: // undecided: leave v distinct from u, try other members
			skip(u)
		}
	}
}

// candidate returns a pool member whose signature matches v's up to
// complement (phase reports the complement), skipping tried ones.
func (s *sweeper) candidate(v int, tried map[int]bool) (u int, phase, ok bool) {
	for _, u := range s.classes[s.keys[v]] {
		if tried[u] {
			continue
		}
		if ph, ok := s.sigEqual(u, v); ok {
			return u, ph, true
		}
	}
	return 0, false, false
}

// register adds v to the representative pool and the class index.
func (s *sweeper) register(v int) {
	k := s.keys[v]
	s.classes[k] = append(s.classes[k], v)
	s.pool = append(s.pool, v)
}

// extend appends one simulated word per variable (a fresh aig.SimWords
// result, kept as a plane) to the signatures and folds it into the running
// class keys. Words are phase-normalized first: complemented so that the
// very first simulated pattern evaluates to 0, which puts a node and its
// complement into the same class. Keys may collide; sigEqual settles every
// candidate.
func (s *sweeper) extend(vals []uint64) {
	s.planes = append(s.planes, vals)
	first := s.planes[0]
	for v, w := range vals {
		if first[v]&1 != 0 {
			w = ^w
		}
		k := (s.keys[v] ^ w) * 0x9e3779b97f4a7c15
		s.keys[v] = k ^ k>>29
	}
}

// sigEqual compares full signatures: equal (phase false), complementary
// (phase true), or neither.
func (s *sweeper) sigEqual(u, v int) (phase, ok bool) {
	var flip uint64
	if s.planes[0][u] != s.planes[0][v] {
		phase, flip = true, ^uint64(0)
	}
	for _, p := range s.planes {
		if p[u] != p[v]^flip {
			return false, false
		}
	}
	return phase, true
}

// prove runs the two-sided miter query x ≡ y on the shared incremental
// solver, which encodes both cones lazily, once, and decides only inside
// them, and tallies it. On Refuted, the returned slice is the
// distinguishing primary-input assignment.
func (s *sweeper) prove(x, y aig.Lit, budget int64) (aig.ProveResult, []bool) {
	res, solves := s.cnf.Prove(x, y, budget)
	s.stats.SATCalls += solves
	obs.C("cec.sat_calls").Add(int64(solves))
	switch res {
	case aig.Refuted:
		s.stats.Cex++
		obs.C("cec.cex").Inc()
		return res, s.cnf.InputModel()
	case aig.Undecided:
		s.stats.SATTimeouts++
	}
	return res, nil
}

// refine simulates one more word of patterns seeded with the
// counterexample (bit 0 exactly, bits 1..63 random perturbations of it)
// and re-buckets the pool by the extended keys, splitting every class the
// new word distinguishes.
func (s *sweeper) refine(cex []bool) {
	s.stats.Refinements++
	obs.C("cec.classes_refined").Inc()
	in := make([]uint64, s.m.NumPIs())
	for i := range in {
		var base uint64
		if cex[i] {
			base = ^uint64(0)
		}
		// ~1/8 of the neighbouring patterns flip each input; bit 0 stays
		// the exact counterexample.
		mask := s.rng.Uint64() & s.rng.Uint64() & s.rng.Uint64() &^ 1
		in[i] = base ^ mask
	}
	s.extend(s.m.SimWords(in))
	s.stats.SimPatterns += 64
	s.classes = make(map[uint64][]int, len(s.pool))
	for _, u := range s.pool {
		k := s.keys[u]
		s.classes[k] = append(s.classes[k], u)
	}
}
