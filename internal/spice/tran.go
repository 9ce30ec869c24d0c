package spice

import (
	"fmt"
	"math"
)

// Waveform holds the sampled results of a transient analysis.
type Waveform struct {
	Time    []float64
	circuit *Circuit
	// samples[i] is the full solution vector at Time[i].
	samples [][]float64
}

// Transient runs a transient analysis from 0 to tstop with the given fixed
// timestep. The initial condition is the DC operating point with the sources
// evaluated at t = 0.
func (c *Circuit) Transient(tstop, dt float64) (*Waveform, error) {
	return c.TransientFrom(nil, tstop, dt, nil)
}

// maxTransientSteps bounds the fixed-step count of one transient window, so
// a deck such as ".tran 1f 1k" is rejected instead of exhausting memory.
const maxTransientSteps = 1_000_000

// checkWindow validates a transient window: tstop and dt finite and
// positive, and at most maxTransientSteps steps of dt in tstop.
func checkWindow(tstop, dt float64) error {
	if !(dt > 0) || !(tstop > 0) || math.IsInf(dt, 0) || math.IsInf(tstop, 0) {
		return fmt.Errorf("invalid transient window tstop=%g dt=%g", tstop, dt)
	}
	if tstop/dt > maxTransientSteps {
		return fmt.Errorf("transient window tstop=%g dt=%g exceeds %d steps", tstop, dt, maxTransientSteps)
	}
	return nil
}

// Settle says when a transient may coast: once every source is constant
// (t ≥ Quiet), the measured node is inside the band around the rail it
// heads to (|V(Node) − Target| < Band), and every node moved at most
// coastTolV in each of the last coastQuietSteps fixed steps, the rest of
// the window is covered by backward-Euler steps of dt, 2dt, 4dt, … clipped
// to tstop. Every sample before coasting is the fixed grid's.
type Settle struct {
	Quiet  float64
	Node   NodeID
	Target float64
	Band   float64
}

// The quiet test of coasting: every node moved at most coastTolV in each of
// the last coastQuietSteps fixed steps.
const (
	coastTolV       = 1e-4
	coastQuietSteps = 3
)

// TransientFrom is Transient with the initial operating-point solve seeded
// from guess — the characterization warm start: neighboring sweep points
// share (or nearly share) their DC state, so seeding skips most of the gmin
// ladder. A guess of the wrong length (or nil) is ignored. A non-nil settle
// lets the transient coast once it has settled (see Settle); nil keeps the
// fixed grid to tstop.
func (c *Circuit) TransientFrom(guess []float64, tstop, dt float64, settle *Settle) (*Waveform, error) {
	if err := checkWindow(tstop, dt); err != nil {
		return nil, fmt.Errorf("spice: %w", err)
	}
	if len(guess) != c.systemSize() {
		guess = nil
	}
	defer c.flushMetrics()
	c.solverFor().forget()
	x, err := c.opAt(0, nil, 0, guess)
	if err != nil {
		return nil, fmt.Errorf("spice: initial operating point: %w", err)
	}
	steps := int(tstop/dt + 0.5)
	wf := &Waveform{circuit: c}
	wf.record(0, x)
	quiet := 0
	for i := 1; i <= steps; i++ {
		t := float64(i) * dt
		if err := c.step(wf, t, dt); err != nil {
			return nil, err
		}
		if settle == nil || i == steps {
			continue
		}
		if wf.maxNodeStep() <= coastTolV {
			quiet++
		} else {
			quiet = 0
		}
		if quiet >= coastQuietSteps && t >= settle.Quiet && math.Abs(wf.last(settle.Node)-settle.Target) < settle.Band {
			if err := c.coast(wf, t, float64(steps)*dt, dt); err != nil {
				return nil, err
			}
			break
		}
	}
	return wf, nil
}

// coast covers (t, tEnd] in backward-Euler steps of h, 2h, 4h, … clipped
// to tEnd; a remainder shorter than half a step is folded into that step.
func (c *Circuit) coast(wf *Waveform, t, tEnd, h float64) error {
	for t < tEnd {
		next := t + h
		if next > tEnd-h/2 {
			next = tEnd
		}
		if err := c.step(wf, next, next-t); err != nil {
			return err
		}
		t = next
		h *= 2
	}
	return nil
}

// step advances the transient by one stride dt to time t, from the last
// recorded sample, and records the new one. The first Newton attempt
// starts from the linear prediction of the last two samples (predict);
// the capacitor history, and the start of the gmin and temperature
// fallbacks, is the last sample. A failed step is retried at a quarter of
// the stride, each quarter starting from the sample before it, for
// robustness around sharp input edges. Once the circuit's solver is warm,
// the sample is the step's only allocation.
func (c *Circuit) step(wf *Waveform, t, dt float64) error {
	x := wf.samples[len(wf.samples)-1]
	next, err := c.newton(t, x, dt, wf.predict(c.solverFor().pred, dt), baseGmin, c.Temp)
	if err != nil {
		next, err = c.fallback(t, x, dt, x)
	}
	if err != nil {
		fine := dt / 4
		cur := x
		for j := 1; j <= 4; j++ {
			sub, errSub := c.opAt(t-dt+float64(j)*fine, cur, fine, cur)
			if errSub != nil {
				return fmt.Errorf("spice: transient step at t=%g: %w", t, err)
			}
			cur = append([]float64(nil), sub...)
		}
		next = cur
	}
	wf.record(t, next)
	return nil
}

// predict writes into buf the linear extrapolation of the last two samples
// a stride dt past the last, x_n + (x_n − x_{n−1})·dt/h with h the spacing
// of those samples, and returns it. With one sample (the first step after
// the operating point) it returns that sample.
func (w *Waveform) predict(buf []float64, dt float64) []float64 {
	k := len(w.samples) - 1
	x := w.samples[k]
	if k == 0 {
		return x
	}
	xp := w.samples[k-1]
	r := dt / (w.Time[k] - w.Time[k-1])
	for i := range buf {
		buf[i] = x[i] + (x[i]-xp[i])*r
	}
	return buf
}

// maxNodeStep returns the largest node-voltage move between the last two
// samples.
func (w *Waveform) maxNodeStep() float64 {
	k := len(w.samples) - 1
	cur, prev := w.samples[k], w.samples[k-1]
	var m float64
	for i := 0; i < w.circuit.NumNodes(); i++ {
		m = math.Max(m, math.Abs(cur[i]-prev[i]))
	}
	return m
}

// last returns the last sampled voltage of node n.
func (w *Waveform) last(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return w.samples[len(w.samples)-1][n]
}

// record appends a copy of the solution sol at time t.
func (w *Waveform) record(t float64, sol []float64) {
	w.Time = append(w.Time, t)
	w.samples = append(w.samples, append([]float64(nil), sol...))
}

// InitialOp returns a copy of the t = 0 operating-point solution vector —
// the warm-start seed a neighboring sweep point passes to TransientFrom
// when the circuits share node ordering (same builder, different values).
func (w *Waveform) InitialOp() []float64 {
	if len(w.samples) == 0 {
		return nil
	}
	return append([]float64(nil), w.samples[0]...)
}

// V returns the voltage waveform at the named node.
func (w *Waveform) V(node string) []float64 {
	id := w.circuit.Node(node)
	out := make([]float64, len(w.samples))
	if id == Ground {
		return out
	}
	for i, s := range w.samples {
		out[i] = s[id]
	}
	return out
}

// BranchCurrent returns the current waveform through the voltage source with
// the given branch index, in the MNA convention (positive current flows from
// the pos terminal through the source to the neg terminal).
func (w *Waveform) BranchCurrent(branch int) []float64 {
	n := w.circuit.NumNodes()
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = s[n+branch]
	}
	return out
}

// SupplyEnergy integrates the energy delivered by the voltage source with
// the given branch index over the full waveform, in joules. For a supply,
// delivered current flows out of the pos terminal, which is the negative of
// the MNA branch current. The integral is the right-endpoint sum
// Σ −i(tₖ)·V(tₖ)·(tₖ − tₖ₋₁), the rule backward Euler itself applies: a
// capacitor companion draws i·h = C·Δv over a step of any length h, so the
// charge (and, at a constant supply, the energy) of a long coasted step is
// exact.
func (w *Waveform) SupplyEnergy(branch int, fn SourceFn) float64 {
	cur := w.BranchCurrent(branch)
	var e float64
	for i := 1; i < len(w.Time); i++ {
		e -= cur[i] * fn(w.Time[i]) * (w.Time[i] - w.Time[i-1])
	}
	return e
}

// CrossTime returns the first time after "after" at which the signal crosses
// the threshold in the requested direction, using linear interpolation. The
// second return value reports whether a crossing was found.
func (w *Waveform) CrossTime(signal []float64, threshold float64, rising bool, after float64) (float64, bool) {
	for i := 1; i < len(w.Time); i++ {
		if w.Time[i] < after {
			continue
		}
		a, b := signal[i-1], signal[i]
		var hit bool
		if rising {
			hit = a < threshold && b >= threshold
		} else {
			hit = a > threshold && b <= threshold
		}
		if hit {
			frac := (threshold - a) / (b - a)
			return w.Time[i-1] + frac*(w.Time[i]-w.Time[i-1]), true
		}
	}
	return 0, false
}

// TransitionTime returns the time the signal takes to move between the low
// and high measurement thresholds (in either direction), searching after the
// given time. It reports false when the transition is not found.
func (w *Waveform) TransitionTime(signal []float64, vLow, vHigh float64, rising bool, after float64) (float64, bool) {
	if rising {
		t0, ok0 := w.CrossTime(signal, vLow, true, after)
		if !ok0 {
			return 0, false
		}
		t1, ok1 := w.CrossTime(signal, vHigh, true, t0)
		if !ok1 {
			return 0, false
		}
		return t1 - t0, true
	}
	t0, ok0 := w.CrossTime(signal, vHigh, false, after)
	if !ok0 {
		return 0, false
	}
	t1, ok1 := w.CrossTime(signal, vLow, false, t0)
	if !ok1 {
		return 0, false
	}
	return t1 - t0, true
}

// Final returns the last sampled value of the signal.
func (w *Waveform) Final(signal []float64) float64 {
	if len(signal) == 0 {
		return 0
	}
	return signal[len(signal)-1]
}
