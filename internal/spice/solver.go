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

// constKey is what the constant tier depends on beyond topology and mode.
// A quarter-step retry changes dt, a gmin-ladder rung gmin, a
// temperature-continuation rung temp; each rebuilds the tier.
type constKey struct {
	dt, gmin, temp float64
}

// solverState is the per-circuit solver scratch: the assembled matrix (one
// backend), the reusable factorization, the slot binding, the cached
// assembly tiers, and the vectors the Newton loop writes into. It is
// rebuilt whenever the circuit's topology (element count or unknown count)
// changes, which freezes the sparsity pattern and the slot table per
// topology exactly once. After the first solve of each mode, a Newton
// iteration allocates nothing.
type solverState struct {
	n, nNode int
	nelems   int
	kind     SolverKind
	dense    bool

	gd  *linalg.Matrix // dense backend
	dlu linalg.LU      // dense factorization, refactored in place
	sp  *linalg.Sparse // sparse backend (compiled pattern)
	lu  *linalg.SparseLU

	elems []element
	mos   []*mosfet // the elements with an iteration tier

	// vals is the active backend's matrix values (gd.A or sp.Vals) plus
	// one trailing trash slot; slots is the slot table every element's
	// entries resolved to (see binder), and slots[gminAt:] the node
	// diagonals the gmin convergence aid lands on.
	vals   []float64
	slots  []int32
	gminAt int32
	ctx    stampCtx

	// The assembled system after each cached tier, as matrix values (vals)
	// and right-hand side. The constant tier is kept per mode once built
	// (constVals non-nil), valid while its key holds; the step tier is the
	// one of the current Newton solve.
	constKey        [2]constKey
	constVals       [2][]float64
	constB          [2][]float64
	stepVals, stepB []float64

	b     []float64 // right-hand side
	resid []float64 // G*x scratch for the residual scan
	xNew  []float64 // Newton proposal
	x     []float64 // Newton iterate; the solution newton returns
	zero  []float64 // all-zero initial guess
	pred  []float64 // predicted start of a transient step's Newton solve

	stats solverStats
}

// prepare assembles the constant tier (from its cache while the key holds)
// and the step tier of one Newton solve at time t.
func (st *solverState) prepare(t float64, prev []float64, dt, gmin, temp float64) {
	mode := 0
	if dt > 0 {
		mode = 1
	}
	ctx := &st.ctx
	*ctx = stampCtx{vals: st.vals, slots: st.slots, b: st.b, prev: prev, time: t, dt: dt, nNode: st.nNode, temp: temp}
	vals := st.vals
	if key := (constKey{dt, gmin, temp}); st.constVals[mode] == nil || st.constKey[mode] != key {
		clear(vals)
		clear(st.b)
		for _, e := range st.elems {
			e.stampConst(ctx)
		}
		for _, s := range st.slots[st.gminAt:] {
			vals[s] += gmin
		}
		st.constVals[mode] = append(st.constVals[mode][:0], vals...)
		st.constB[mode] = append(st.constB[mode][:0], st.b...)
		st.constKey[mode] = key
	} else {
		copy(vals, st.constVals[mode])
		copy(st.b, st.constB[mode])
	}
	for _, e := range st.elems {
		e.stampStep(ctx)
	}
	copy(st.stepVals, vals)
	copy(st.stepB, st.b)
}

// assemble completes the system at iterate x: the step tier plus every
// MOSFET's linearization.
func (st *solverState) assemble(x []float64) {
	copy(st.vals, st.stepVals)
	copy(st.b, st.stepB)
	ctx := &st.ctx
	ctx.x = x
	for _, m := range st.mos {
		m.stampIter(ctx)
	}
}

// forget drops every MOSFET's memo of its last device evaluation.
func (st *solverState) forget() {
	for _, m := range st.mos {
		m.memo = false
	}
}

// mulVecInto computes dst = G*x on whichever backend is active.
func (st *solverState) mulVecInto(dst, x []float64) {
	if st.dense {
		st.gd.MulVecInto(dst, x)
	} else {
		st.sp.MulVecInto(dst, x)
	}
}

// solverFor returns the circuit's solver state, (re)building it when the
// topology changed since the last solve. Building the sparse state binds
// the elements once against a pattern recorder to discover the sparsity
// pattern — every entry any tier of any analysis mode may write — and
// again against the compiled pattern.
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
		pred:  make([]float64, n),
		stepB: make([]float64, n),
	}
	for _, e := range c.elems {
		if m, ok := e.(*mosfet); ok {
			st.mos = append(st.mos, m)
		}
	}
	st.dense = c.Solver == SolverDense || (c.Solver == SolverAuto && n <= denseCutoff)
	if st.dense {
		st.vals = make([]float64, n*n+1)
		st.gd = &linalg.Matrix{N: n, A: st.vals[:n*n]}
		st.slots, st.gminAt = bindAll(c.elems, nNode, int32(n*n), denseSlot(n))
		obs.C("spice.solver.dense_builds").Inc()
	} else {
		pat := linalg.NewPattern(n)
		bindAll(c.elems, nNode, 0, func(i, j int) int32 { pat.Add(i, j); return 0 })
		sp := pat.Compile()
		nnz := sp.NNZ()
		st.vals = append(sp.Vals, 0)
		sp.Vals = st.vals[:nnz]
		st.sp = sp
		st.slots, st.gminAt = bindAll(c.elems, nNode, int32(nnz), func(i, j int) int32 { return int32(sp.Slot(i, j)) })
		obs.C("spice.solver.pattern_builds").Inc()
	}
	st.stepVals = make([]float64, len(st.vals))
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
	timed := st.stats.factors()%timingStride == 0 && obs.MetricsEnabled()
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

// timingStride is the sampling stride of the factor and solve clocks: with
// metrics on, every timingStride-th sparse factorization of an analysis is
// timed, starting with its first.
const timingStride = 8

// itersHistLen bounds the per-iteration-count tally of solverStats; the
// rare solve that takes longer is observed directly.
const itersHistLen = 32

// solverStats accumulates a circuit's Newton and linear-solver metrics so
// the hot loop makes no registry lookups and reads no clock twice over;
// flush publishes them once per analysis (OpPoint, OpPointFrom,
// TransientFrom). Counter totals are the same as per-event updates. The
// factor and solve histograms receive each analysis's mean time over its
// sampled factorizations (one in timingStride), weighted by its number of
// factorizations, so their counts are exact, their sums and means per
// factorization are unbiased estimates, and their quantiles are over
// analyses.
type solverStats struct {
	solves, iterations, nonconverged int64
	iters                            [itersHistLen]int64 // converged solves by iteration count

	symbolicBuilds, symbolicReuse, repivots int64
	fillin                                  float64 // of the latest symbolic factorization; 0 = none since the last flush

	timed               int64 // timed sparse factorizations (one in timingStride)
	factorSec, solveSec float64
}

// factors returns the number of sparse factorizations tallied: each is a
// symbolic build, a reuse or a repivot.
func (s *solverStats) factors() int64 {
	return s.symbolicBuilds + s.symbolicReuse + s.repivots
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
		obs.H("spice.solver.factor.seconds").ObserveN(s.factorSec/n, s.factors())
		obs.H("spice.solver.solve.seconds").ObserveN(s.solveSec/n, s.factors())
	}
	*s = solverStats{}
}

// flushMetrics publishes the circuit's accumulated solver metrics.
func (c *Circuit) flushMetrics() {
	if c.solver != nil {
		c.solver.stats.flush()
	}
}
