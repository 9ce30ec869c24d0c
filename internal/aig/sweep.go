package aig

import (
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sat"
)

// Sweep budgets. Small by design: cheap proofs merge most of the graph; a
// caller with harder questions left (cec's output pairs) asks them through
// Prove with its own budget.
const (
	// sweepWords is the initial random simulation: 8 words of 64 patterns.
	sweepWords = 8
	// maxRefinements caps counterexample-driven class refinements; past
	// the cap, refuted candidates are simply skipped.
	maxRefinements = 128
	// classBudget is the conflict budget of each sweeping proof attempt
	// between internal nodes.
	classBudget = 1000
)

// SweepStats instruments one sweep: how the engine earned its merges.
type SweepStats struct {
	Nodes        int // AND nodes of the swept graph
	ReducedNodes int // AND nodes after sweeping merged equivalences
	SimPatterns  int // simulation patterns applied (initial + refinement)
	Refinements  int // counterexample-driven class refinements
	StructMerges int // nodes merged purely by hashing into the reduced graph
	LocalMerges  int // nodes merged by a cut-local truth-table proof (no SAT)
	SATMerges    int // nodes merged by a SAT proof
	SATCalls     int
	SATTimeouts  int // queries that exhausted their conflict budget
	Cex          int // satisfiable queries (distinguishing patterns found)
}

// Sweeper is the tree's one simulation-guided SAT-sweeping engine
// (fraiging: Mishchenko et al., "FRAIGs: a unifying representation for
// logic synthesis and verification", 2005). Resub sweeps one graph with it;
// cec.Check sweeps the joint miter of two. It processes the graph m in
// topological order and maintains a reduced ("fraiged") graph red in which
// every proven-equivalent node class is represented once: lift maps each m
// variable to its literal in red.
//
// Candidate classes come from bit-parallel random simulation: nodes whose
// signatures agree (up to complement) are candidates. A candidate merge is
// first tried as a cut-local truth-table proof over red (local.go); the
// rest go to an incremental SAT solver over red, which proves or refutes
// them. Refuted candidates yield a counterexample pattern that is simulated
// back through m to split every class it distinguishes — the classic
// cex-feedback loop, run to fixpoint because each refinement strictly
// refines the partition.
type Sweeper struct {
	m   *AIG
	rng *rand.Rand

	// planes holds the simulation signatures word-major: planes[i] is the
	// i-th simulated word of every m variable, as SimWords returned it.
	planes [][]uint64
	keys   []uint64 // m variable -> running hash of its normalized signature

	red  *AIG
	lift []Lit     // m variable -> literal in red
	cut  cutProver // SAT-free proofs on small common cuts of red

	pool    []int            // processed, unmerged m variables (class reps)
	classes map[uint64][]int // class key -> pool members

	cnf *CNFBuilder // incremental solver over red, inputs encoded first

	Stats SweepStats
}

// NewSweeper prepares a sweep of m: its initial simulation classes, drawn
// from seed, and a reduced graph holding m's inputs under their names.
func NewSweeper(m *AIG, seed int64) *Sweeper {
	s := &Sweeper{
		m:       m,
		rng:     rand.New(rand.NewSource(seed)),
		keys:    make([]uint64, m.NumVars()),
		classes: make(map[uint64][]int),
	}
	s.Stats.Nodes = m.NumNodes()

	// Initial random simulation: sweepWords words of 64 patterns each.
	in := make([]uint64, m.NumPIs())
	for w := 0; w < sweepWords; w++ {
		for i := range in {
			in[i] = s.rng.Uint64()
		}
		s.extend(m.SimWords(in))
	}
	s.Stats.SimPatterns = 64 * sweepWords

	// Reduced graph and the incremental solver over it.
	s.red = New(m.Name + "_red")
	s.cut.g = s.red
	s.lift = make([]Lit, m.NumVars())
	s.lift[0] = False
	for i := 0; i < m.NumPIs(); i++ {
		s.lift[i+1] = s.red.AddPI(m.PIName(i))
	}
	s.cnf = NewCNFBuilder(s.red, sat.New(0))
	s.cnf.EncodeInputs()

	// The constant and the PIs seed the classes, so constant nodes and
	// input-equivalent nodes can merge onto them.
	s.register(0)
	for i := 1; i <= m.NumPIs(); i++ {
		s.register(i)
	}
	return s
}

// Run sweeps every AND node of m, one progress unit per node (progress
// may be nil).
func (s *Sweeper) Run(progress *obs.Task) {
	for v := s.m.NumPIs() + 1; v < s.m.NumVars(); v++ {
		f0, f1 := s.m.Fanins(v)
		s.lift[v] = s.red.And(s.Lift(f0), s.Lift(f1))
		s.mergeOrRegister(v)
		progress.Inc()
	}
	s.Stats.ReducedNodes = s.red.NumNodes()
}

// Reduced returns the reduced graph. It has m's inputs and no outputs;
// Lift maps m's literals into it.
func (s *Sweeper) Reduced() *AIG { return s.red }

// Lift maps an m literal into the reduced graph.
func (s *Sweeper) Lift(l Lit) Lit {
	return s.lift[l.Var()].NotIf(l.IsCompl())
}

// CutEqual reports whether two reduced-graph literals were proven equal on
// a small common cut, without SAT (cutProver.equal).
func (s *Sweeper) CutEqual(x, y Lit) bool { return s.cut.equal(x, y) }

// mergeOrRegister tries to merge node v onto a sim-compatible class
// representative; failing that, v becomes a representative itself.
func (s *Sweeper) mergeOrRegister(v int) {
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
			s.Stats.StructMerges++
			return
		}
		if s.cut.equal(s.lift[v], target) {
			s.lift[v] = target
			s.Stats.LocalMerges++
			return
		}
		res, cex := s.Prove(s.lift[v], target, classBudget)
		switch res {
		case Proven:
			s.lift[v] = target
			s.Stats.SATMerges++
			return
		case Refuted:
			if s.Stats.Refinements < maxRefinements {
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
func (s *Sweeper) candidate(v int, tried map[int]bool) (u int, phase, ok bool) {
	for _, u := range s.classes[s.keys[v]] {
		if tried[u] {
			continue
		}
		if ph, ok := s.sameSignature(u, v); ok {
			return u, ph, true
		}
	}
	return 0, false, false
}

// register adds v to the representative pool and the class index.
func (s *Sweeper) register(v int) {
	k := s.keys[v]
	s.classes[k] = append(s.classes[k], v)
	s.pool = append(s.pool, v)
}

// extend appends one simulated word per variable (a fresh SimWords result,
// kept as a plane) to the signatures and folds it into the running class
// keys. Words are phase-normalized first: complemented so that the very
// first simulated pattern evaluates to 0, which puts a node and its
// complement into the same class. Keys may collide; sameSignature settles
// every candidate.
func (s *Sweeper) extend(vals []uint64) {
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

// sameSignature compares full signatures: equal (phase false),
// complementary (phase true), or neither.
func (s *Sweeper) sameSignature(u, v int) (phase, ok bool) {
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

// Prove runs the two-sided miter query x ≡ y between reduced-graph
// literals on the shared incremental solver, which encodes both cones
// lazily, once, and decides only inside them, and tallies it. On Refuted,
// the returned slice is the distinguishing primary-input assignment.
func (s *Sweeper) Prove(x, y Lit, budget int64) (ProveResult, []bool) {
	res, solves := s.cnf.Prove(x, y, budget)
	s.Stats.SATCalls += solves
	switch res {
	case Refuted:
		s.Stats.Cex++
		return res, s.cnf.InputModel()
	case Undecided:
		s.Stats.SATTimeouts++
	}
	return res, nil
}

// refine simulates one more word of patterns seeded with the
// counterexample (bit 0 exactly, bits 1..63 random perturbations of it)
// and re-buckets the pool by the extended keys, splitting every class the
// new word distinguishes.
func (s *Sweeper) refine(cex []bool) {
	s.Stats.Refinements++
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
	s.Stats.SimPatterns += 64
	s.classes = make(map[uint64][]int, len(s.pool))
	for _, u := range s.pool {
		k := s.keys[u]
		s.classes[k] = append(s.classes[k], u)
	}
}
