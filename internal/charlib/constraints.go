package charlib

import (
	"fmt"

	"repro/internal/liberty"
	"repro/internal/pdk"
	"repro/internal/spice"
)

// MeasureSetupHold extracts the setup and hold times of an edge-triggered
// flop by bisection at the mid slew point: the data transition is moved
// toward (setup) or away from (hold) the active clock edge until capture
// fails; the constraint is the last passing margin. Results are in seconds.
//
// This is the constraint-characterization half of a SiliconSmart flow; it
// is opt-in because it costs ~10 transients per cell.
func MeasureSetupHold(cell *pdk.Cell, cfg Config) (setup, hold float64, err error) {
	if !cell.Seq || !cell.IsFlop {
		return 0, 0, fmt.Errorf("charlib: %s is not an edge-triggered flop", cell.Name)
	}
	slew := cfg.Slews[len(cfg.Slews)/2]
	load := cfg.Loads[len(cfg.Loads)/2]
	ch := &charer{cfg: cfg}
	vdd := cfg.Vdd

	// Setup trial: the D rise crosses 50% exactly margin before the clock's
	// 50% crossing; it passes when Q captured the 1.
	captures := func(margin float64) (bool, error) {
		return ch.latches(cell, slew, load, func(edgeRef float64) spice.SourceFn {
			tD := edgeRef - margin // D 50% crossing
			return spice.PWL([2]float64{0, 0}, [2]float64{tD - slew/2, 0}, [2]float64{tD + slew/2, vdd})
		})
	}
	// Hold trial: D is high long before the edge and its fall crosses 50%
	// exactly margin after the clock's 50% crossing (positive = after the
	// edge); it passes when Q kept the 1.
	holds := func(margin float64) (bool, error) {
		return ch.latches(cell, slew, load, func(edgeRef float64) spice.SourceFn {
			tD := edgeRef + margin // D-fall 50% crossing
			return spice.PWL([2]float64{0, 0},
				[2]float64{edgeRef - 150e-12, 0}, [2]float64{edgeRef - 150e-12 + slew, vdd},
				[2]float64{tD - slew/2, vdd}, [2]float64{tD + slew/2, 0})
		})
	}

	// Setup: data 120 ps before the edge is assumed safe, data 20 ps after
	// it must fail.
	setup, inRange, err := bisect(captures, 120e-12, -20e-12)
	if err != nil {
		return 0, 0, fmt.Errorf("charlib: %s setup: %w", cell.Name, err)
	}
	if !inRange {
		// Degenerate but possible with reconvergent stimuli; report zero.
		return 0, 0, nil
	}
	// Hold: with the data launched well before the edge, find how soon after
	// the edge it may be withdrawn. When even 60 ps before the edge passes,
	// the constraint lies below the probe range and that bound is reported.
	hold, _, err = bisect(holds, 120e-12, -60e-12)
	if err != nil {
		return setup, 0, fmt.Errorf("charlib: %s hold: %w", cell.Name, err)
	}
	return setup, hold, nil
}

// bisect narrows a constraint margin between pass, which the trial must
// pass, and fail in nine halvings and returns the last passing margin.
// When fail passes too, it returns fail with inRange false.
func bisect(trial func(margin float64) (bool, error), pass, fail float64) (margin float64, inRange bool, err error) {
	ok, err := trial(pass)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, fmt.Errorf("fails even with a %g s margin", pass)
	}
	if ok, err = trial(fail); err != nil || ok {
		return fail, false, err
	}
	for i := 0; i < 9; i++ {
		mid := 0.5 * (pass + fail)
		if ok, err = trial(mid); err != nil {
			return 0, false, err
		}
		if ok {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, true, nil
}

// latches runs one single-edge capture trial: CLK makes one active
// transition whose 50% crossing sits at a fixed reference time, mkD supplies
// the data stimulus relative to that reference, and the result is whether Q
// holds a 1 well after the edge.
func (ch *charer) latches(cell *pdk.Cell, slew, load float64, mkD func(edgeRef float64) spice.SourceFn) (bool, error) {
	period := 500e-12
	edge := 300e-12          // clock ramp start
	edgeRef := edge + slew/2 // clock 50% crossing
	clk := [][2]float64{{0, 0}, {edge, 0}, {edge + slew, 1}}
	q := cell.Outputs[0]
	c, _, _, err := ch.build(cell, ch.seqStim(cell, clk, mkD(edgeRef)), loadOn(q, load))
	if err != nil {
		return false, err
	}
	tstop := edge + period
	wf, err := c.Transient(tstop, tstop/1600)
	if err != nil {
		return false, err
	}
	return sampleAfter(wf, wf.V("out_"+q), edgeRef+period/2.2) > 0.9*ch.cfg.Vdd, nil
}

func sampleAfter(wf *spice.Waveform, sig []float64, t float64) float64 {
	idx := 0
	for i, tt := range wf.Time {
		if tt <= t {
			idx = i
		}
	}
	return sig[idx]
}

// AttachConstraints measures setup/hold for a flop and attaches them to its
// liberty cell as scalar constraint arcs on the data pin.
func AttachConstraints(lc *liberty.Cell, cell *pdk.Cell, cfg Config) error {
	setup, hold, err := MeasureSetupHold(cell, cfg)
	if err != nil {
		return err
	}
	d := lc.FindPin("D")
	if d == nil {
		return fmt.Errorf("charlib: %s has no D pin", lc.Name)
	}
	scalar := func(v float64) *liberty.Table {
		t := liberty.NewTable([]float64{cfg.Slews[len(cfg.Slews)/2]}, []float64{cfg.Loads[len(cfg.Loads)/2]})
		t.Values[0][0] = v
		return t
	}
	edgeType := "setup_rising"
	holdType := "hold_rising"
	if !cell.Edge {
		edgeType, holdType = "setup_falling", "hold_falling"
	}
	d.Timings = append(d.Timings,
		&liberty.Timing{RelatedPin: cell.Clock, Type: edgeType, CellRise: scalar(setup), CellFall: scalar(setup)},
		&liberty.Timing{RelatedPin: cell.Clock, Type: holdType, CellRise: scalar(hold), CellFall: scalar(hold)},
	)
	return nil
}
