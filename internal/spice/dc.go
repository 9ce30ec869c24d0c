package spice

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/constants"
	"repro/internal/obs"
)

// ErrNoConvergence is returned when Newton iteration fails even with gmin
// stepping and temperature continuation. Failed solves carry a
// *ConvergenceError in their chain (see AsConvergenceError) with the full
// forensic diagnosis.
var ErrNoConvergence = errors.New("spice: operating point did not converge")

const (
	newtonTolV  = 1e-6
	newtonMaxIt = 400
	baseGmin    = 1e-12
)

// gminLadder is the gmin-continuation schedule: solve with a heavy
// convergence-aid conductance and relax it rung by rung down to baseGmin.
var gminLadder = [...]float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, baseGmin}

// gminLadderFullDepth is the ladder-depth histogram value recorded when
// every rung converged (a fully walked ladder); smaller observations mark
// the rung at which the ladder died.
const gminLadderFullDepth = float64(len(gminLadder))

// dampFor returns the Newton trust region for a given temperature. At
// cryogenic temperatures the subthreshold exponential steepens to a few
// millivolts per decade, so voltage steps must shrink accordingly.
func dampFor(tempK float64) float64 {
	vt := constants.ThermalVoltage(math.Max(tempK, 35))
	d := 60 * vt
	if d > 0.4 {
		d = 0.4
	}
	if d < 0.03 {
		d = 0.03
	}
	return d
}

// OpPoint solves the DC operating point at t = 0 and returns the solution
// vector (node voltages followed by voltage-source branch currents).
func (c *Circuit) OpPoint() ([]float64, error) {
	return c.OpPointFrom(nil)
}

// OpPointFrom solves the DC operating point seeded with an initial guess —
// used to re-solve after removing a symmetry-breaking aid, keeping the
// solution on the same stable branch of a bistable circuit.
func (c *Circuit) OpPointFrom(guess []float64) ([]float64, error) {
	defer c.flushMetrics()
	c.solverFor().forget()
	x, err := c.opAt(0, nil, 0, guess)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), x...), nil
}

// opAt runs Newton-Raphson at the given time. For transient steps, prev is
// the previous solution (used by capacitor companions) and dt > 0. guess
// seeds the iteration when non-nil (a short guess is padded with zeros).
// Neither prev nor guess is written. The returned solution is the solver's
// own buffer, valid until the circuit's next solve.
func (c *Circuit) opAt(t float64, prev []float64, dt float64, guess []float64) ([]float64, error) {
	x := guess
	if x == nil {
		x = c.solverFor().zero
	}
	if sol, err := c.newton(t, prev, dt, x, baseGmin, c.Temp); err == nil {
		return sol, nil
	}
	return c.fallback(t, prev, dt, x)
}

// fallback solves the system of opAt after plain Newton failed, seeded
// from x: first by gmin continuation, then by temperature continuation.
func (c *Circuit) fallback(t float64, prev []float64, dt float64, x []float64) ([]float64, error) {
	// Fallback 1: gmin continuation — solve with heavy gmin and relax,
	// keeping any caller-provided guess so warm starts stay on their branch
	// (bistable circuits!).
	obs.C("spice.newton.retries").Inc()
	if sol, err := c.gminLadderFrom(t, prev, dt, c.Temp, x); err == nil {
		return sol, nil
	}
	// Fallback 2: temperature continuation. The 300 K system is far better
	// conditioned (gentler exponentials); walk the solution down to the
	// target temperature, warm-starting each rung from the caller's guess.
	obs.C("spice.temp_continuation.runs").Inc()
	ladder := []float64{300, 150, 77, 40, 20, 12, c.Temp}
	x = append(make([]float64, 0, c.systemSize()), x...)
	solved := false
	for _, temp := range ladder {
		if temp < c.Temp {
			temp = c.Temp
		}
		sol, err := c.newton(t, prev, dt, x, baseGmin, temp)
		if err != nil {
			sol, err = c.gminLadderFrom(t, prev, dt, temp, x)
			if err != nil {
				if ce := AsConvergenceError(err); ce != nil {
					ce.Diag.Phase = PhaseTempContinuation
				}
				return nil, fmt.Errorf("%w (temperature continuation at %g K)", err, temp)
			}
		}
		// Keep the rung's solution apart from the solver's iterate buffer:
		// the next rung's failed Newton would overwrite it.
		x = append(x[:0], sol...)
		if temp == c.Temp {
			solved = true
			break
		}
	}
	if !solved {
		// c.Temp > 300: finish directly.
		return c.newton(t, prev, dt, x, baseGmin, c.Temp)
	}
	return x, nil
}

func (c *Circuit) gminLadderFrom(t float64, prev []float64, dt, temp float64, x0 []float64) ([]float64, error) {
	obs.C("spice.gmin.ladders").Inc()
	x := append([]float64(nil), x0...)
	for depth, gmin := range gminLadder {
		sol, err := c.newton(t, prev, dt, x, gmin, temp)
		if err != nil {
			obs.H("spice.gmin.ladder_depth").Observe(float64(depth + 1))
			obs.C("spice.gmin.exhausted").Inc()
			if ce := AsConvergenceError(err); ce != nil {
				ce.Diag.Phase = PhaseGminLadder
			}
			return nil, fmt.Errorf("%w (gmin=%g)", err, gmin)
		}
		x = sol
		obs.C("spice.gmin.steps").Inc()
	}
	obs.H("spice.gmin.ladder_depth").Observe(gminLadderFullDepth)
	return x, nil
}

// newton runs damped Newton-Raphson with a fixed gmin at the given
// temperature, iterating in the solver's iterate buffer, which it returns
// as the solution. While it iterates it keeps the trailing ringK
// iterations in a fixed-size ring (maxDV and its node, worst residual and
// its row, gmin rung, temperature); on failure the ring becomes the
// diagnosis of the returned *ConvergenceError.
func (c *Circuit) newton(t float64, prev []float64, dt float64, x0 []float64, gmin, temp float64) (sol []float64, err error) {
	st := c.solverFor()
	st.stats.solves++
	iters := 0
	defer func() {
		st.stats.iterations += int64(iters)
		if err == nil {
			st.stats.observeIters(iters)
		} else {
			st.stats.nonconverged++
		}
	}()
	n, nNode := st.n, st.nNode
	b := st.b
	x := st.x
	if k := copy(x, x0); k < n {
		clear(x[k:])
	}
	st.prepare(t, prev, dt, gmin, temp)

	maxIt := c.MaxIter
	if maxIt <= 0 {
		maxIt = newtonMaxIt
	}
	var ring [ringK]iterRec

	damp := dampFor(temp)
	for it := 0; it < maxIt; it++ {
		iters = it + 1
		// Shrink the trust region if the iteration is slow to settle, which
		// breaks limit cycles around high-impedance internal nodes.
		if it > 0 && it%60 == 0 {
			damp *= 0.5
		}
		st.assemble(x)
		// Residual acceptance: at the expansion point the Newton companion
		// currents equal the true nonlinear currents, so G*x - b is the
		// exact KCL/KVL residual. Floating nodes between OFF devices can
		// two-cycle at millivolt amplitude while carrying femtoamps; when
		// every node balances to < 1 pA and every source constraint to
		// < 1 nV, the point is a solution for all practical purposes.
		// The scan doubles as the forensic residual probe: the row that is
		// worst relative to its tolerance is the convergence bottleneck.
		// The matvec is O(nnz) on the sparse path, not O(n²).
		// Iteration 0 never accepts, so its scan only feeds the ring, and a
		// failure reports iteration 0 only when the ring still holds it:
		// with maxIt > ringK the scan is skipped.
		var worstResid float64
		worstRow := -1
		if it > 0 || maxIt <= ringK {
			st.mulVecInto(st.resid, x)
			ok := it > 0
			worstScore := 0.0
			for i := 0; i < n; i++ {
				r := st.resid[i] - b[i]
				tol := 1e-12 // node row: amperes
				if i >= nNode {
					tol = 1e-9 // source row: volts
				}
				a := math.Abs(r)
				if a > tol {
					ok = false
				}
				if score := a / tol; score > worstScore {
					worstScore, worstRow, worstResid = score, i, a
				}
			}
			if ok {
				return x, nil
			}
		}
		if err := st.solve(); err != nil {
			return nil, err
		}
		xNew := st.xNew
		// Damping: limit per-node voltage moves to keep the exponential
		// device model inside its linearization trust region. Convergence is
		// judged on the full Newton proposal, not the clipped step, so a
		// forcibly shrunk trust region cannot fake convergence.
		var maxDV float64
		dvRow := -1
		for i := 0; i < nNode; i++ {
			dv := xNew[i] - x[i]
			if a := math.Abs(dv); a > maxDV {
				maxDV = a
				dvRow = i
			}
			if dv > damp {
				dv = damp
			} else if dv < -damp {
				dv = -damp
			}
			x[i] += dv
		}
		for i := nNode; i < n; i++ {
			x[i] = xNew[i]
		}
		ring[it%ringK] = iterRec{
			it: it, maxDV: maxDV, dvRow: dvRow,
			resid: worstResid, residRow: worstRow,
			gmin: gmin, temp: temp,
		}
		if maxDV < newtonTolV {
			return x, nil
		}
	}
	return nil, c.diagnose(&ring, iters, x, t, prev, dt, gmin, temp)
}
