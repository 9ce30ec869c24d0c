package spice

import (
	"testing"

	"repro/internal/obs"
)

// rampedInverter is an inverter at 10 K with a load and an input ramp that
// finishes at 30 ps, on the given solver backend.
func rampedInverter(kind SolverKind) *Circuit {
	c, _, _ := buildInverter(10, 2, 1e-15)
	c.Solver = kind
	c.AddVSource(c.Node("in"), Ground, PWL([2]float64{10e-12, 0}, [2]float64{30e-12, 0.7}))
	return c
}

// TestWarmTransientStepAllocatesOnlyItsSample pins the scratch-buffer
// discipline of docs/SPICE.md: once a circuit's solver is warm, a transient
// step — tiered assembly, Newton iterations, factorization and solve —
// allocates nothing but the waveform sample it records.
func TestWarmTransientStepAllocatesOnlyItsSample(t *testing.T) {
	const dt = 0.5e-12
	for _, kind := range []SolverKind{SolverDense, SolverSparse} {
		c := rampedInverter(kind)
		warm, err := c.Transient(50e-12, dt)
		if err != nil {
			t.Fatal(err)
		}
		last := len(warm.Time) - 1
		wf := &Waveform{circuit: c, Time: make([]float64, 0, 256), samples: make([][]float64, 0, 256)}
		wf.record(warm.Time[last], warm.samples[last])
		now := warm.Time[last]
		allocs := testing.AllocsPerRun(100, func() {
			now += dt
			if err := c.step(wf, now, dt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("solver %d: warm transient step allocates %v times, want 1 (its sample)", kind, allocs)
		}
	}
}

// TestSolverMetricsFlushedPerAnalysis checks that the Newton and solver
// metrics tallied on the circuit reach the registry when the analysis
// returns, with the totals per-event updates would give: one Newton solve
// for the operating point plus one per time step, the iteration histogram
// summing to the iteration counter, and one factor and solve timing per
// sparse factorization.
func TestSolverMetricsFlushedPerAnalysis(t *testing.T) {
	if !obs.MetricsEnabled() {
		obs.EnableMetrics()
		defer obs.DisableMetrics()
	}
	read := func() (solves, iters, histN, histSum, factors, timedF, timedS int64) {
		h := obs.H("spice.newton.iters_per_solve")
		return obs.C("spice.newton.solves").Value(), obs.C("spice.newton.iterations").Value(),
			h.Count(), int64(h.Sum()),
			obs.C("spice.solver.symbolic.builds").Value() + obs.C("spice.solver.symbolic.reuse").Value() + obs.C("spice.solver.repivots").Value(),
			obs.H("spice.solver.factor.seconds").Count(), obs.H("spice.solver.solve.seconds").Count()
	}
	s0, i0, n0, sum0, f0, tf0, ts0 := read()
	c := rampedInverter(SolverSparse)
	const steps = 100
	if _, err := c.Transient(steps*0.5e-12, 0.5e-12); err != nil {
		t.Fatal(err)
	}
	s1, i1, n1, sum1, f1, tf1, ts1 := read()
	if c.solver.stats != (solverStats{}) {
		t.Errorf("metrics left unflushed after Transient: %+v", c.solver.stats)
	}
	if got := s1 - s0; got != steps+1 {
		t.Errorf("spice.newton.solves grew by %d, want %d (operating point + steps)", got, steps+1)
	}
	if n1-n0 != s1-s0 || sum1-sum0 != i1-i0 {
		t.Errorf("iters_per_solve gained %d observations summing to %d; want %d summing to %d",
			n1-n0, sum1-sum0, s1-s0, i1-i0)
	}
	if f1-f0 == 0 || tf1-tf0 != f1-f0 || ts1-ts0 != f1-f0 {
		t.Errorf("%d factorizations, but %d factor and %d solve timings", f1-f0, tf1-tf0, ts1-ts0)
	}
}

// TestSolverClocksSampled checks the fixed-stride clock sampling: with
// metrics on, one sparse factorization in timingStride is timed, starting
// with the first of the analysis.
func TestSolverClocksSampled(t *testing.T) {
	if !obs.MetricsEnabled() {
		obs.EnableMetrics()
		defer obs.DisableMetrics()
	}
	const dt = 0.5e-12
	c := rampedInverter(SolverSparse)
	wf, err := c.Transient(20*dt, dt) // flushes its stats on return
	if err != nil {
		t.Fatal(err)
	}
	now := wf.Time[len(wf.Time)-1]
	for k := 0; k < 50; k++ {
		now += dt
		if err := c.step(wf, now, dt); err != nil {
			t.Fatal(err)
		}
	}
	s := c.solver.stats
	if want := (s.factors() + timingStride - 1) / timingStride; s.factors() < 50 || s.timed != want {
		t.Errorf("%d of %d factorizations timed, want %d", s.timed, s.factors(), want)
	}
}
