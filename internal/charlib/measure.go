package charlib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/liberty"
	"repro/internal/pdk"
	"repro/internal/spice"
)

// arcWaveform is the result of one measurement transient.
type arcWaveform struct {
	wf     *spice.Waveform
	in     []float64 // stimulated input waveform
	out    []float64 // measured output waveform
	energy float64   // total supply energy over the event window (J)
	op     []float64 // t=0 operating point: the next grid point's warm start
}

// combArc measures the full NLDM grid for one input->output arc of a
// combinational cell, returning the timing and internal-power groups.
//
// Grid rows (fixed slew, sweeping load) run concurrently on the shared
// worker pool. Within a row each solve is warm-started from the previous
// load point's operating point — neighboring points differ only in load
// capacitance, which is invisible at DC, so the seed is essentially exact
// and Newton skips the gmin ladder. Each row chains deterministically, so
// results are bit-identical to a sequential sweep.
func (ch *charer) combArc(cell *pdk.Cell, in, out string, vec int, o0, o1 bool) (*liberty.Timing, *liberty.InternalPower, error) {
	cfg := ch.cfg
	tm := &liberty.Timing{
		RelatedPin: in,
		CellRise:   liberty.NewTable(cfg.Slews, cfg.Loads),
		CellFall:   liberty.NewTable(cfg.Slews, cfg.Loads),
		RiseTrans:  liberty.NewTable(cfg.Slews, cfg.Loads),
		FallTrans:  liberty.NewTable(cfg.Slews, cfg.Loads),
	}
	pw := &liberty.InternalPower{
		RelatedPin: in,
		RisePower:  liberty.NewTable(cfg.Slews, cfg.Loads),
		FallPower:  liberty.NewTable(cfg.Slews, cfg.Loads),
	}
	arc := in + "->" + out
	errs := make([]error, len(cfg.Slews))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, slew := range cfg.Slews {
		wg.Add(1)
		go func(i int, slew float64) {
			defer wg.Done()
			ch.acquire()
			defer ch.release()
			var warmRise, warmFall []float64
			for j, load := range cfg.Loads {
				if failed.Load() {
					return
				}
				rise, err := ch.runComb(cell, in, out, vec, true, o1, slew, load, warmRise)
				if err != nil {
					ch.journalFailure(cell, arc, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g rise: %w", slew, load, err)
					failed.Store(true)
					return
				}
				warmRise = rise.op
				fall, err := ch.runComb(cell, in, out, vec, false, o0, slew, load, warmFall)
				if err != nil {
					ch.journalFailure(cell, arc, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g fall: %w", slew, load, err)
					failed.Store(true)
					return
				}
				warmFall = fall.op
				// Input rising waveform produces output rise when o1 is true
				// (positive behavior at this vector); otherwise output falls.
				outRiseWf, outFallWf := rise, fall
				if !o1 {
					outRiseWf, outFallWf = fall, rise
				}
				dRise, trRise, err := measureDelay(outRiseWf, cfg.Vdd, true)
				if err != nil {
					ch.journalFailure(cell, arc, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g output-rise: %w", slew, load, err)
					failed.Store(true)
					return
				}
				dFall, trFall, err := measureDelay(outFallWf, cfg.Vdd, false)
				if err != nil {
					ch.journalFailure(cell, arc, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g output-fall: %w", slew, load, err)
					failed.Store(true)
					return
				}
				tm.CellRise.Values[i][j] = dRise
				tm.RiseTrans.Values[i][j] = trRise
				tm.CellFall.Values[i][j] = dFall
				tm.FallTrans.Values[i][j] = trFall
				// Internal energy: the supply delivers Cload*Vdd^2 to charge the
				// load on output-rise events; everything beyond that is internal
				// (short-circuit + internal node) energy. On output-fall events
				// the load discharges through the pull-down, so the entire
				// supply draw is internal.
				eRise := outRiseWf.energy - load*cfg.Vdd*cfg.Vdd
				if eRise < 0 {
					eRise = 0
				}
				eFall := outFallWf.energy
				if eFall < 0 {
					eFall = 0
				}
				pw.RisePower.Values[i][j] = eRise
				pw.FallPower.Values[i][j] = eFall
			}
		}(i, slew)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return tm, pw, nil
}

// runComb builds and simulates one combinational measurement: the target
// input ramps (rising or falling) while side inputs hold the sensitizing
// vector, and the output heads high when outHigh is set, low otherwise.
// warm, when non-nil, seeds the initial operating-point solve from the
// previous load point on the same grid row (see TransientFrom).
//
// The transient coasts once the input ramp is over, the output is inside
// the 5% settle band of its rail and every node is quiet (spice.Settle):
// every measured crossing lies before that point, so delays and
// transitions are those of the fixed grid.
func (ch *charer) runComb(cell *pdk.Cell, in, out string, vec int, inputRises, outHigh bool, slew, load float64, warm []float64) (*arcWaveform, error) {
	cfg := ch.cfg
	c := ch.newCircuit()
	vddN := c.Node("vdd")
	supply := spice.DC(cfg.Vdd)
	br := c.AddVSource(vddN, spice.Ground, supply)
	pins := map[string]spice.NodeID{}
	t0 := 20e-12
	ramp := slew
	v0, v1 := 0.0, cfg.Vdd
	if !inputRises {
		v0, v1 = cfg.Vdd, 0.0
	}
	for i, p := range cell.Inputs {
		node := c.Node("in_" + p)
		pins[p] = node
		if p == in {
			c.AddVSource(node, spice.Ground, spice.PWL(
				[2]float64{0, v0}, [2]float64{t0, v0}, [2]float64{t0 + ramp, v1},
			))
			continue
		}
		v := 0.0
		if vec&(1<<uint(i)) != 0 {
			v = cfg.Vdd
		}
		c.AddVSource(node, spice.Ground, spice.DC(v))
	}
	for _, o := range cell.Outputs {
		n := c.Node("out_" + o)
		pins[o] = n
		if o == out {
			c.AddCapacitor(n, spice.Ground, load)
		} else {
			c.AddCapacitor(n, spice.Ground, 0.4e-15) // nominal side load
		}
	}
	if err := cell.Build(c, "dut", pins, vddN); err != nil {
		return nil, err
	}
	var settle *spice.Settle
	if !ch.fixedGrid {
		settle = &spice.Settle{Quiet: t0 + ramp, Node: pins[out], Band: 0.05 * cfg.Vdd}
		if outHigh {
			settle.Target = cfg.Vdd
		}
	}
	tstop := t0 + ramp + 250e-12
	for attempt := 0; ; attempt++ {
		dt := tstop / 600
		wf, err := c.TransientFrom(warm, tstop, dt, settle)
		if err != nil {
			return nil, err
		}
		outV := wf.V("out_" + out)
		final := wf.Final(outV)
		settled := final < 0.05*cfg.Vdd || final > 0.95*cfg.Vdd
		if settled || attempt >= 2 {
			if !settled {
				return nil, fmt.Errorf("output did not settle (%.3f V after %.3g s)", final, tstop)
			}
			return &arcWaveform{
				wf:     wf,
				in:     wf.V("in_" + in),
				out:    outV,
				energy: wf.SupplyEnergy(br, supply),
				op:     wf.InitialOp(),
			}, nil
		}
		tstop *= 2
	}
}

// measureDelay extracts the 50%-50% propagation delay and the full-swing
// equivalent output transition ((t80-t20)/0.6) from a measurement waveform.
// rising reports the expected output direction.
func measureDelay(a *arcWaveform, vdd float64, rising bool) (delay, trans float64, err error) {
	half := vdd / 2
	// The input may rise or fall; find its 50% crossing in either direction.
	tIn, ok := a.wf.CrossTime(a.in, half, true, 0)
	if !ok {
		tIn, ok = a.wf.CrossTime(a.in, half, false, 0)
	}
	if !ok {
		return 0, 0, fmt.Errorf("input crossing not found")
	}
	tOut, ok := a.wf.CrossTime(a.out, half, rising, 0)
	if !ok {
		return 0, 0, fmt.Errorf("output crossing not found (rising=%v)", rising)
	}
	tr, ok := a.wf.TransitionTime(a.out, 0.2*vdd, 0.8*vdd, rising, 0)
	if !ok {
		return 0, 0, fmt.Errorf("output transition not found")
	}
	d := tOut - tIn
	if d < 0 {
		d = 0 // ultra-fast cells can cross before the input midpoint
	}
	return d, tr / 0.6, nil
}

// clockArc measures the CLK->Q arc of a sequential cell: Q rise is captured
// at the second clock edge (D=1), Q fall at the third (D=0).
func (ch *charer) clockArc(cell *pdk.Cell, out string) (*liberty.Timing, *liberty.InternalPower, error) {
	cfg := ch.cfg
	edgeType := "rising_edge"
	if !cell.Edge {
		edgeType = "falling_edge"
	}
	tm := &liberty.Timing{
		RelatedPin: cell.Clock,
		Sense:      liberty.SenseNonUnate,
		Type:       edgeType,
		CellRise:   liberty.NewTable(cfg.Slews, cfg.Loads),
		CellFall:   liberty.NewTable(cfg.Slews, cfg.Loads),
		RiseTrans:  liberty.NewTable(cfg.Slews, cfg.Loads),
		FallTrans:  liberty.NewTable(cfg.Slews, cfg.Loads),
	}
	pw := &liberty.InternalPower{
		RelatedPin: cell.Clock,
		RisePower:  liberty.NewTable(cfg.Slews, cfg.Loads),
		FallPower:  liberty.NewTable(cfg.Slews, cfg.Loads),
	}
	errs := make([]error, len(cfg.Slews))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, slew := range cfg.Slews {
		wg.Add(1)
		go func(i int, slew float64) {
			defer wg.Done()
			ch.acquire()
			defer ch.release()
			var warm []float64
			for j, load := range cfg.Loads {
				if failed.Load() {
					return
				}
				res, err := ch.runClock(cell, out, slew, load, warm)
				if err != nil {
					ch.journalFailure(cell, cell.Clock+"->"+out, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g: %w", slew, load, err)
					failed.Store(true)
					return
				}
				warm = res.op
				tm.CellRise.Values[i][j] = res.dRise
				tm.CellFall.Values[i][j] = res.dFall
				tm.RiseTrans.Values[i][j] = res.trRise
				tm.FallTrans.Values[i][j] = res.trFall
				pw.RisePower.Values[i][j] = res.eRise
				pw.FallPower.Values[i][j] = res.eFall
			}
		}(i, slew)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return tm, pw, nil
}

type clockResult struct {
	dRise, dFall, trRise, trFall, eRise, eFall float64
	op                                         []float64
}

// runClock simulates a 3-edge capture sequence and extracts CLK->Q metrics
// at the 2nd (Q rise) and 3rd (Q fall) active edges. warm seeds the initial
// operating point from the previous load point on the same slew row.
func (ch *charer) runClock(cell *pdk.Cell, out string, slew, load float64, warm []float64) (*clockResult, error) {
	cfg := ch.cfg
	c := ch.newCircuit()
	vddN := c.Node("vdd")
	supply := spice.DC(cfg.Vdd)
	br := c.AddVSource(vddN, spice.Ground, supply)
	pins := map[string]spice.NodeID{}

	period := 500e-12 + 8*slew
	ramp := slew
	hi, lo := cfg.Vdd, 0.0
	if !cell.Edge {
		// Negative-edge flops and transparent-low latches: invert the
		// clock polarity so the capture/opening event is the monitored
		// edge.
		hi, lo = 0.0, cfg.Vdd
	}
	// Clock: low phase then three active pulses.
	var clkPts [][2]float64
	clkPts = append(clkPts, [2]float64{0, lo})
	for k := 0; k < 3; k++ {
		rise := float64(k+1) * period
		fallT := rise + period/2
		clkPts = append(clkPts,
			[2]float64{rise, lo}, [2]float64{rise + ramp, hi},
			[2]float64{fallT, hi}, [2]float64{fallT + ramp, lo},
		)
	}
	edge2 := 2 * period
	edge3 := 3 * period

	for _, p := range cell.Inputs {
		node := c.Node("in_" + p)
		pins[p] = node
		switch p {
		case cell.Clock:
			c.AddVSource(node, spice.Ground, spice.PWL(clkPts...))
		case "D":
			// 0 for the 1st capture, 1 before the 2nd, 0 before the 3rd.
			c.AddVSource(node, spice.Ground, spice.PWL(
				[2]float64{0, 0},
				[2]float64{edge2 - period/3, 0}, [2]float64{edge2 - period/3 + 10e-12, cfg.Vdd},
				[2]float64{edge3 - period/3, cfg.Vdd}, [2]float64{edge3 - period/3 + 10e-12, 0},
			))
		case "RN", "SN":
			c.AddVSource(node, spice.Ground, spice.DC(cfg.Vdd)) // inactive
		case "SI", "SE":
			c.AddVSource(node, spice.Ground, spice.DC(0))
		case "EN":
			c.AddVSource(node, spice.Ground, spice.DC(cfg.Vdd))
		default:
			c.AddVSource(node, spice.Ground, spice.DC(0))
		}
	}
	for _, o := range cell.Outputs {
		n := c.Node("out_" + o)
		pins[o] = n
		cl := 0.4e-15
		if o == out {
			cl = load
		}
		c.AddCapacitor(n, spice.Ground, cl)
	}
	if err := cell.Build(c, "ff", pins, vddN); err != nil {
		return nil, err
	}
	tstop := 3*period + period
	wf, err := c.TransientFrom(warm, tstop, tstop/2400, nil)
	if err != nil {
		return nil, err
	}
	clk := wf.V("in_" + cell.Clock)
	q := wf.V("out_" + out)
	half := cfg.Vdd / 2
	activeRising := cell.Edge

	clkEdge2, ok := wf.CrossTime(clk, half, activeRising, edge2-10e-12)
	if !ok {
		return nil, fmt.Errorf("2nd clock edge not found")
	}
	qRise, ok := wf.CrossTime(q, half, true, clkEdge2)
	if !ok {
		return nil, fmt.Errorf("Q rise not found")
	}
	trRise, ok := wf.TransitionTime(q, 0.2*cfg.Vdd, 0.8*cfg.Vdd, true, clkEdge2)
	if !ok {
		return nil, fmt.Errorf("Q rise transition not found")
	}
	clkEdge3, ok := wf.CrossTime(clk, half, activeRising, edge3-10e-12)
	if !ok {
		return nil, fmt.Errorf("3rd clock edge not found")
	}
	qFall, ok := wf.CrossTime(q, half, false, clkEdge3)
	if !ok {
		return nil, fmt.Errorf("Q fall not found")
	}
	trFall, ok := wf.TransitionTime(q, 0.2*cfg.Vdd, 0.8*cfg.Vdd, false, clkEdge3)
	if !ok {
		return nil, fmt.Errorf("Q fall transition not found")
	}

	// Per-edge energy: integrate the supply over each capture window.
	cur := wf.BranchCurrent(br)
	window := func(t0, t1 float64) float64 {
		var e float64
		for i := 1; i < len(wf.Time); i++ {
			if wf.Time[i] < t0 || wf.Time[i-1] > t1 {
				continue
			}
			dt := wf.Time[i] - wf.Time[i-1]
			e += 0.5 * (-cur[i-1] - cur[i]) * cfg.Vdd * dt
		}
		return e
	}
	eRise := window(clkEdge2-20e-12, clkEdge2+period/2) - load*cfg.Vdd*cfg.Vdd
	if eRise < 0 {
		eRise = 0
	}
	eFall := window(clkEdge3-20e-12, clkEdge3+period/2)
	if eFall < 0 {
		eFall = 0
	}
	return &clockResult{
		dRise: qRise - clkEdge2, dFall: qFall - clkEdge3,
		trRise: trRise / 0.6, trFall: trFall / 0.6,
		eRise: eRise, eFall: eFall,
		op: wf.InitialOp(),
	}, nil
}
