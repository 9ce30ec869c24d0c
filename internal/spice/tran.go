package spice

import "fmt"

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
	return c.TransientFrom(nil, tstop, dt)
}

// TransientFrom is Transient with the initial operating-point solve seeded
// from guess — the characterization warm start: neighboring sweep points
// share (or nearly share) their DC state, so seeding skips most of the gmin
// ladder. A guess of the wrong length (or nil) is ignored.
func (c *Circuit) TransientFrom(guess []float64, tstop, dt float64) (*Waveform, error) {
	if dt <= 0 || tstop <= 0 {
		return nil, fmt.Errorf("spice: invalid transient window tstop=%g dt=%g", tstop, dt)
	}
	if len(guess) != c.systemSize() {
		guess = nil
	}
	defer c.flushMetrics()
	x, err := c.opAt(0, nil, 0, guess)
	if err != nil {
		return nil, fmt.Errorf("spice: initial operating point: %w", err)
	}
	steps := int(tstop/dt + 0.5)
	wf := &Waveform{
		circuit: c,
		Time:    make([]float64, 0, steps+1),
		samples: make([][]float64, 0, steps+1),
	}
	wf.record(0, x)
	for i := 1; i <= steps; i++ {
		if err := c.step(wf, float64(i)*dt, dt); err != nil {
			return nil, err
		}
	}
	return wf, nil
}

// step advances the transient by one stride dt to time t, from the last
// recorded sample, and records the new one. A failed step is retried at a
// quarter of the stride for robustness around sharp input edges. Once the
// circuit's solver is warm, the sample is the step's only allocation.
func (c *Circuit) step(wf *Waveform, t, dt float64) error {
	x := wf.samples[len(wf.samples)-1]
	next, err := c.opAt(t, x, dt, x)
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
// the MNA branch current.
func (w *Waveform) SupplyEnergy(branch int, fn SourceFn) float64 {
	cur := w.BranchCurrent(branch)
	var e float64
	for i := 1; i < len(w.Time); i++ {
		dt := w.Time[i] - w.Time[i-1]
		p0 := -cur[i-1] * fn(w.Time[i-1])
		p1 := -cur[i] * fn(w.Time[i])
		e += 0.5 * (p0 + p1) * dt
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
