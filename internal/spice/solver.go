package spice

import (
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// SolverKind selects the linear-solver backend for a circuit's MNA system.
type SolverKind int

const (
	// SolverAuto uses the sparse solver except for tiny systems, where the
	// dense path's lower constant wins.
	SolverAuto SolverKind = iota
	// SolverDense forces dense LU — the cross-check oracle.
	SolverDense
	// SolverSparse forces sparse LU regardless of size.
	SolverSparse
)

// denseCutoff is the auto-mode system size at or below which dense LU is
// used: below ~8 unknowns the sparse bookkeeping costs more than it saves.
const denseCutoff = 8

// pivotTau is the threshold-pivoting relaxation for the sparse LU: rows
// within 10% of the column maximum are acceptable pivots, letting the
// Markowitz tie-break pick the sparsest. MNA systems carry gmin on every
// node diagonal, so this is comfortably stable.
const pivotTau = 0.1

// Assembly tiers. A stamp's tier is set by what it depends on, which
// decides how often it is redone (see element):
const (
	tierConst = iota // topology and (mode, dt, gmin, temp): once per key
	tierStep         // plus (t, prev): once per Newton solve
	tierIter         // plus the Newton iterate: every iteration
	numTiers
)

// constKey is what the constant tier depends on beyond topology and mode.
// A quarter-step retry changes dt, a gmin-ladder rung gmin, a
// temperature-continuation rung temp; each rebuilds the tier.
type constKey struct {
	dt, gmin, temp float64
}

// solverState is the per-circuit solver scratch: the assembled matrix (one
// backend), the reusable factorization, the cached assembly tiers, and the
// vectors the Newton loop writes into. It is rebuilt whenever the
// circuit's topology (element count or unknown count) changes, which
// freezes the sparsity pattern per topology exactly once. After the first
// solve of each mode, a Newton iteration allocates nothing.
type solverState struct {
	n, nNode int
	nelems   int
	kind     SolverKind
	dense    bool

	gd  *linalg.Matrix // dense backend
	dlu linalg.LU      // dense factorization, refactored in place
	sp  *linalg.Sparse // sparse backend (compiled pattern)
	lu  *linalg.SparseLU

	elems  []element
	nonlin []nonlinear // the elements with an iteration tier

	// seq[mode][tier] is the recorded slot sequence of one stamping pass
	// of that tier — the per-topology index map. Element stamp order and
	// each element's Add-call sequence depend only on topology and the
	// analysis mode (mode 1: transient, capacitor companions active; mode
	// 0: DC), never on values, so after one recording pass every stamp
	// resolves to an O(1) indexed add instead of a binary search in the
	// CSC column.
	seq      [2][numTiers][]int32
	recorder seqRecorder
	replayer seqReplayer
	ctx      stampCtx

	// The assembled system after each cached tier, as matrix values
	// (sparse Vals or dense A) and right-hand side. The constant tier is
	// kept per mode once built (constVals non-nil), valid while its key
	// holds; the step tier is the one of the current Newton solve, in mode
	// stepMode.
	constKey        [2]constKey
	constVals       [2][]float64
	constB          [2][]float64
	stepVals, stepB []float64
	stepMode        int

	b     []float64 // right-hand side
	resid []float64 // G*x scratch for the residual scan
	xNew  []float64 // Newton proposal
	x     []float64 // Newton iterate; the solution newton returns
	zero  []float64 // all-zero initial guess

	stats solverStats
}

// seqRecorder resolves stamps against the compiled pattern by binary search
// and records the slot order for replay.
type seqRecorder struct {
	sp  *linalg.Sparse
	seq []int32
}

func (r *seqRecorder) Add(i, j int, v float64) {
	s := r.sp.Slot(i, j)
	r.seq = append(r.seq, int32(s))
	r.sp.Vals[s] += v
}

// seqReplayer replays a recorded slot sequence: each Add consumes the next
// slot. A k that runs past the sequence means an element stamped a
// value-dependent pattern — a bug; end catches it.
type seqReplayer struct {
	sp  *linalg.Sparse
	seq []int32
	k   int
}

func (r *seqReplayer) Add(i, j int, v float64) {
	r.sp.Vals[r.seq[r.k]] += v
	r.k++
}

// begin returns the matrix one tier's stamping pass adds into, on top of
// whatever the system already holds. Sparse circuits record the slot
// sequence on the first pass of each (mode, tier) and replay it
// afterwards; the caller must finish the pass with end.
func (st *solverState) begin(mode, tier int) mnaMatrix {
	if st.dense {
		return st.gd
	}
	if st.seq[mode][tier] == nil {
		// Non-nil even if the pass makes no Add: it is recorded all the same.
		st.recorder = seqRecorder{sp: st.sp, seq: make([]int32, 0, 16)}
		return &st.recorder
	}
	st.replayer = seqReplayer{sp: st.sp, seq: st.seq[mode][tier]}
	return &st.replayer
}

// end commits a recording pass or verifies a replay consumed exactly the
// recorded sequence.
func (st *solverState) end(mode, tier int) {
	if st.dense {
		return
	}
	if st.seq[mode][tier] == nil {
		st.seq[mode][tier] = st.recorder.seq
		st.recorder = seqRecorder{}
		return
	}
	if st.replayer.k != len(st.replayer.seq) {
		panic("spice: stamp sequence diverged from recorded pattern — value-dependent stamping?")
	}
}

// vals returns the assembled matrix values of the active backend.
func (st *solverState) vals() []float64 {
	if st.dense {
		return st.gd.A
	}
	return st.sp.Vals
}

// prepare assembles the constant tier (from its cache while the key holds)
// and the step tier of one Newton solve at time t.
func (st *solverState) prepare(t float64, prev []float64, dt, gmin, temp float64) {
	mode := 0
	if dt > 0 {
		mode = 1
	}
	ctx := &st.ctx
	*ctx = stampCtx{b: st.b, prev: prev, time: t, dt: dt, nNode: st.nNode, gmin: gmin, temp: temp}
	vals := st.vals()
	if key := (constKey{dt, gmin, temp}); st.constVals[mode] == nil || st.constKey[mode] != key {
		clear(vals)
		clear(st.b)
		ctx.g = st.begin(mode, tierConst)
		for _, e := range st.elems {
			e.stampConst(ctx)
		}
		// The gmin convergence aid lands on every node diagonal.
		for i := 0; i < st.nNode; i++ {
			ctx.g.Add(i, i, gmin)
		}
		st.end(mode, tierConst)
		st.constVals[mode] = append(st.constVals[mode][:0], vals...)
		st.constB[mode] = append(st.constB[mode][:0], st.b...)
		st.constKey[mode] = key
	} else {
		copy(vals, st.constVals[mode])
		copy(st.b, st.constB[mode])
	}
	ctx.g = st.begin(mode, tierStep)
	for _, e := range st.elems {
		e.stampStep(ctx)
	}
	st.end(mode, tierStep)
	copy(st.stepVals, vals)
	copy(st.stepB, st.b)
	st.stepMode = mode
}

// assemble completes the system at iterate x: the step tier plus every
// nonlinear element's linearization.
func (st *solverState) assemble(x []float64) {
	copy(st.vals(), st.stepVals)
	copy(st.b, st.stepB)
	ctx := &st.ctx
	ctx.x = x
	ctx.g = st.begin(st.stepMode, tierIter)
	for _, e := range st.nonlin {
		e.stampIter(ctx)
	}
	st.end(st.stepMode, tierIter)
}

// mulVecInto computes dst = G*x on whichever backend is active.
func (st *solverState) mulVecInto(dst, x []float64) {
	if st.dense {
		st.gd.MulVecInto(dst, x)
	} else {
		st.sp.MulVecInto(dst, x)
	}
}

// patternRecorder adapts linalg.Pattern to the stamp interface so one
// discovery pass over the elements yields the full sparsity pattern.
type patternRecorder struct{ p *linalg.Pattern }

func (r patternRecorder) Add(i, j int, _ float64) { r.p.Add(i, j) }

// solverFor returns the circuit's solver state, (re)building it when the
// topology changed since the last solve. Building the sparse state runs one
// pattern-discovery stamp with every conditional element forced on (dt > 0
// for capacitor companions, clamps enabled), so the compiled pattern is a
// superset of anything any analysis mode will ever write.
func (c *Circuit) solverFor() *solverState {
	n := c.systemSize()
	if st := c.solver; st != nil && st.n == n && st.nelems == len(c.elems) && st.kind == c.Solver {
		return st
	}
	c.flushMetrics()
	nNode := len(c.names)
	st := &solverState{
		n: n, nNode: nNode, nelems: len(c.elems), kind: c.Solver,
		elems: c.elems,
		b:     make([]float64, n),
		resid: make([]float64, n),
		xNew:  make([]float64, n),
		x:     make([]float64, n),
		zero:  make([]float64, n),
		stepB: make([]float64, n),
	}
	for _, e := range c.elems {
		if nl, ok := e.(nonlinear); ok {
			st.nonlin = append(st.nonlin, nl)
		}
	}
	st.dense = c.Solver == SolverDense || (c.Solver == SolverAuto && n <= denseCutoff)
	if st.dense {
		st.gd = linalg.NewMatrix(n)
		obs.C("spice.solver.dense_builds").Inc()
	} else {
		pat := linalg.NewPattern(n)
		ctx := &stampCtx{
			g: patternRecorder{pat}, b: st.b, x: st.zero, prev: st.zero,
			time: 0, dt: 1e-12, nNode: nNode, temp: c.Temp,
		}
		for _, e := range c.elems {
			stampAll(e, ctx)
		}
		// The gmin convergence aid lands on every node diagonal.
		for i := 0; i < nNode; i++ {
			pat.Add(i, i)
		}
		st.sp = pat.Compile()
		clear(st.b)
		obs.C("spice.solver.pattern_builds").Inc()
	}
	st.stepVals = make([]float64, len(st.vals()))
	c.solver = st
	return st
}

// solve factors the assembled system and solves it into st.xNew. On the
// sparse path the symbolic factorization is computed once per pattern and
// reused via in-place numeric refactorization; a pivot that drifted
// numerically triggers one full re-pivot before giving up. The dense path
// refactors one LU in place.
func (st *solverState) solve() error {
	if st.dense {
		if err := st.dlu.Factor(st.gd); err != nil {
			return err
		}
		st.dlu.SolveInto(st.xNew, st.b)
		return nil
	}
	timed := obs.MetricsEnabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if st.lu == nil {
		lu, err := st.sp.Factor(pivotTau)
		if err != nil {
			return err
		}
		st.lu = lu
		st.stats.symbolicBuilds++
		st.stats.fillin = float64(lu.FillIn())
	} else if err := st.lu.Refactor(); err != nil {
		st.stats.repivots++
		lu, err2 := st.sp.Factor(pivotTau)
		if err2 != nil {
			return err2
		}
		st.lu = lu
		st.stats.fillin = float64(lu.FillIn())
	} else {
		st.stats.symbolicReuse++
	}
	var t1 time.Time
	if timed {
		t1 = time.Now()
		st.stats.factorSec += t1.Sub(t0).Seconds()
	}
	st.lu.SolveInto(st.xNew, st.b)
	if timed {
		st.stats.solveSec += time.Since(t1).Seconds()
		st.stats.timed++
	}
	return nil
}

// itersHistLen bounds the per-iteration-count tally of solverStats; the
// rare solve that takes longer is observed directly.
const itersHistLen = 32

// solverStats accumulates a circuit's Newton and linear-solver metrics so
// the hot loop makes no registry lookups and reads no clock twice over;
// flush publishes them once per analysis (OpPoint, OpPointFrom,
// TransientFrom). Counter totals are the same as per-event updates. The
// factor and solve histograms receive each analysis's mean time, weighted
// by its number of factorizations, so their sums and counts — and the mean
// per factorization — are exact while their quantiles are over analyses.
type solverStats struct {
	solves, iterations, nonconverged int64
	iters                            [itersHistLen]int64 // converged solves by iteration count

	symbolicBuilds, symbolicReuse, repivots int64
	fillin                                  float64 // of the latest symbolic factorization; 0 = none since the last flush

	timed               int64 // timed sparse factorizations
	factorSec, solveSec float64
}

// observeIters tallies one converged solve of the given iteration count.
func (s *solverStats) observeIters(iters int) {
	if iters < itersHistLen {
		s.iters[iters]++
		return
	}
	obs.H("spice.newton.iters_per_solve").Observe(float64(iters))
}

// flush publishes the accumulated metrics and resets them.
func (s *solverStats) flush() {
	if s.solves == 0 {
		return // every factorization belongs to a Newton solve
	}
	obs.C("spice.newton.solves").Add(s.solves)
	obs.C("spice.newton.iterations").Add(s.iterations)
	if s.nonconverged > 0 {
		obs.C("spice.newton.nonconverged").Add(s.nonconverged)
	}
	h := obs.H("spice.newton.iters_per_solve")
	for iters, k := range s.iters {
		if k > 0 {
			h.ObserveN(float64(iters), k)
		}
	}
	if s.symbolicBuilds > 0 {
		obs.C("spice.solver.symbolic.builds").Add(s.symbolicBuilds)
	}
	if s.repivots > 0 {
		obs.C("spice.solver.repivots").Add(s.repivots)
	}
	if s.symbolicReuse > 0 {
		obs.C("spice.solver.symbolic.reuse").Add(s.symbolicReuse)
	}
	if s.symbolicBuilds+s.repivots > 0 {
		obs.G("spice.solver.fillin").Set(s.fillin)
	}
	if s.timed > 0 {
		n := float64(s.timed)
		obs.H("spice.solver.factor.seconds").ObserveN(s.factorSec/n, s.timed)
		obs.H("spice.solver.solve.seconds").ObserveN(s.solveSec/n, s.timed)
	}
	*s = solverStats{}
}

// flushMetrics publishes the circuit's accumulated solver metrics.
func (c *Circuit) flushMetrics() {
	if c.solver != nil {
		c.solver.stats.flush()
	}
}
