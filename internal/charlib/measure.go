package charlib

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/liberty"
	"repro/internal/pdk"
	"repro/internal/spice"
)

// sideLoad is the nominal capacitance on every output that is not being
// measured.
const sideLoad = 0.4e-15

// build assembles one testbench: the supply, then one source per input pin
// in cell order (stim gives the pin's stimulus), then one capacitor per
// output in cell order (load gives its capacitance; 0 means none), then the
// cell itself. That creation order fixes the node and element numbering,
// and with it every MNA system of the corner. It returns the circuit, the
// supply branch and the pin nodes.
func (ch *charer) build(cell *pdk.Cell, stim func(i int, pin string) spice.SourceFn, load func(out string) float64) (*spice.Circuit, int, map[string]spice.NodeID, error) {
	c := ch.newCircuit()
	vdd := c.Node("vdd")
	br := c.AddVSource(vdd, spice.Ground, spice.DC(ch.cfg.Vdd))
	pins := map[string]spice.NodeID{}
	for i, p := range cell.Inputs {
		pins[p] = c.Node("in_" + p)
		c.AddVSource(pins[p], spice.Ground, stim(i, p))
	}
	for _, o := range cell.Outputs {
		pins[o] = c.Node("out_" + o)
		if cl := load(o); cl > 0 {
			c.AddCapacitor(pins[o], spice.Ground, cl)
		}
	}
	return c, br, pins, cell.Build(c, "dut", pins, vdd)
}

// loadOn puts load on the measured output out and sideLoad on the others.
func loadOn(out string, load float64) func(string) float64 {
	return func(o string) float64 {
		if o == out {
			return load
		}
		return sideLoad
	}
}

// vectorStim holds input i at Vdd when bit i of vec is set, at 0 otherwise.
func (ch *charer) vectorStim(vec int) func(int, string) spice.SourceFn {
	return func(i int, _ string) spice.SourceFn {
		if vec&(1<<uint(i)) != 0 {
			return spice.DC(ch.cfg.Vdd)
		}
		return spice.DC(0)
	}
}

// seqStim drives a sequential cell: the clock pin follows the PWL points
// clk, whose values are logic levels (1 is the active level: high for
// rising-edge flops and transparent-high latches, low for the others, so the
// monitored edge is always the capturing or opening one), D follows d, the
// asynchronous reset and set (RN, SN) are held inactive high and every other
// input (scan SI, SE) is held low.
func (ch *charer) seqStim(cell *pdk.Cell, clk [][2]float64, d spice.SourceFn) func(int, string) spice.SourceFn {
	level := [2]float64{0, ch.cfg.Vdd}
	if !cell.Edge {
		level = [2]float64{ch.cfg.Vdd, 0}
	}
	pts := make([][2]float64, len(clk))
	for k, p := range clk {
		pts[k] = [2]float64{p[0], level[int(p[1])]}
	}
	return func(_ int, p string) spice.SourceFn {
		switch p {
		case cell.Clock:
			return spice.PWL(pts...)
		case "D":
			return d
		case "RN", "SN":
			return spice.DC(ch.cfg.Vdd)
		}
		return spice.DC(0)
	}
}

// gridPoint is one (slew, load) point of an arc: the 50%-50% delay, the
// full-swing output transition and the supply energy drawn over the event,
// for the output-rise and the output-fall event.
type gridPoint struct {
	dRise, dFall, trRise, trFall, eRise, eFall float64
}

// rowFunc returns the point function of one slew row. The sweep calls the
// point function in load order, so it may carry a warm start from one load
// point to the next.
type rowFunc func(slew float64) func(load float64) (gridPoint, error)

// sweep measures the NLDM grid of one arc into the delay and transition
// tables of tm and returns its internal-power group.
//
// Grid rows (fixed slew, sweeping load) run concurrently on the shared
// worker pool. Within a row each solve is warm-started from the previous
// load point's operating point — neighboring points differ only in load
// capacitance, which is invisible at DC, so the seed is essentially exact
// and Newton skips the gmin ladder. Each row chains deterministically, so
// results are bit-identical to a sequential sweep. The first failing point
// stops every row and is journaled with its (slew, load) context; the
// lowest failing row's error is returned.
func (ch *charer) sweep(cell *pdk.Cell, arc string, tm *liberty.Timing, row rowFunc) (*liberty.InternalPower, error) {
	cfg := ch.cfg
	table := func() *liberty.Table { return liberty.NewTable(cfg.Slews, cfg.Loads) }
	tm.CellRise, tm.CellFall, tm.RiseTrans, tm.FallTrans = table(), table(), table(), table()
	pw := &liberty.InternalPower{RelatedPin: tm.RelatedPin, RisePower: table(), FallPower: table()}
	errs := make([]error, len(cfg.Slews))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, slew := range cfg.Slews {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.acquire()
			defer ch.release()
			point := row(slew)
			for j, load := range cfg.Loads {
				if failed.Load() {
					return
				}
				p, err := point(load)
				if err != nil {
					ch.journalFailure(cell, arc, slew, load, err)
					errs[i] = fmt.Errorf("slew=%g load=%g: %w", slew, load, err)
					failed.Store(true)
					return
				}
				tm.CellRise.Values[i][j], tm.RiseTrans.Values[i][j] = p.dRise, p.trRise
				tm.CellFall.Values[i][j], tm.FallTrans.Values[i][j] = p.dFall, p.trFall
				// Internal energy: the supply delivers Cload*Vdd^2 to charge the
				// load on output-rise events; everything beyond that is internal
				// (short-circuit + internal node) energy. On output-fall events
				// the load discharges through the pull-down, so the entire
				// supply draw is internal.
				pw.RisePower.Values[i][j] = max(0, p.eRise-load*cfg.Vdd*cfg.Vdd)
				pw.FallPower.Values[i][j] = max(0, p.eFall)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pw, nil
}

// arcWaveform is the result of one combinational measurement transient.
type arcWaveform struct {
	wf     *spice.Waveform
	in     []float64 // stimulated input waveform
	out    []float64 // measured output waveform
	energy float64   // total supply energy over the event window (J)
	op     []float64 // t=0 operating point: the next grid point's warm start
}

// combRow measures one input->output arc of a combinational cell under the
// sensitizing vector vec: each point runs an input-rise and an input-fall
// transient, each warm-started from the same transient at the previous load
// point.
func (ch *charer) combRow(cell *pdk.Cell, in, out string, vec int, o0, o1 bool) rowFunc {
	vdd := ch.cfg.Vdd
	return func(slew float64) func(float64) (gridPoint, error) {
		var warmRise, warmFall []float64
		return func(load float64) (p gridPoint, err error) {
			rise, err := ch.runComb(cell, in, out, vec, true, o1, slew, load, warmRise)
			if err != nil {
				return p, fmt.Errorf("rise: %w", err)
			}
			warmRise = rise.op
			fall, err := ch.runComb(cell, in, out, vec, false, o0, slew, load, warmFall)
			if err != nil {
				return p, fmt.Errorf("fall: %w", err)
			}
			warmFall = fall.op
			// Input rising waveform produces output rise when o1 is true
			// (positive behavior at this vector); otherwise output falls.
			up, down := rise, fall
			if !o1 {
				up, down = fall, rise
			}
			if p.dRise, p.trRise, err = measureDelay(up, vdd, true); err != nil {
				return p, fmt.Errorf("output-rise: %w", err)
			}
			if p.dFall, p.trFall, err = measureDelay(down, vdd, false); err != nil {
				return p, fmt.Errorf("output-fall: %w", err)
			}
			p.eRise, p.eFall = up.energy, down.energy
			return p, nil
		}
	}
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
	t0 := 20e-12
	ramp := slew
	v0, v1 := 0.0, cfg.Vdd
	if !inputRises {
		v0, v1 = cfg.Vdd, 0.0
	}
	hold := ch.vectorStim(vec)
	c, br, pins, err := ch.build(cell, func(i int, p string) spice.SourceFn {
		if p == in {
			return spice.PWL([2]float64{0, v0}, [2]float64{t0, v0}, [2]float64{t0 + ramp, v1})
		}
		return hold(i, p)
	}, loadOn(out, load))
	if err != nil {
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
				energy: wf.SupplyEnergy(br, spice.DC(cfg.Vdd)),
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

// clockRow measures the CLK->Q arc of a sequential cell, each point
// warm-started from the previous load point's operating point.
func (ch *charer) clockRow(cell *pdk.Cell, out string) rowFunc {
	return func(slew float64) func(float64) (gridPoint, error) {
		var warm []float64
		return func(load float64) (p gridPoint, err error) {
			p, warm, err = ch.runClock(cell, out, slew, load, warm)
			return p, err
		}
	}
}

// runClock simulates a 3-edge capture sequence and extracts CLK->Q metrics
// at the 2nd (Q rise, D=1) and 3rd (Q fall, D=0) active edges. warm seeds
// the initial operating point; the t=0 operating point is returned for the
// next load point. The step is a 2400th of four periods, and the transient
// stops two steps past the last sample the 3rd edge's energy window can
// read.
func (ch *charer) runClock(cell *pdk.Cell, out string, slew, load float64, warm []float64) (gridPoint, []float64, error) {
	cfg := ch.cfg
	period := 500e-12 + 8*slew
	ramp := slew
	// Clock: inactive phase then three active pulses.
	clk := [][2]float64{{0, 0}}
	for k := 0; k < 3; k++ {
		rise := float64(k+1) * period
		fallT := rise + period/2
		clk = append(clk,
			[2]float64{rise, 0}, [2]float64{rise + ramp, 1},
			[2]float64{fallT, 1}, [2]float64{fallT + ramp, 0},
		)
	}
	edge2 := 2 * period
	edge3 := 3 * period
	// D: 0 for the 1st capture, 1 before the 2nd, 0 before the 3rd.
	d := spice.PWL(
		[2]float64{0, 0},
		[2]float64{edge2 - period/3, 0}, [2]float64{edge2 - period/3 + 10e-12, cfg.Vdd},
		[2]float64{edge3 - period/3, cfg.Vdd}, [2]float64{edge3 - period/3 + 10e-12, 0},
	)
	c, br, _, err := ch.build(cell, ch.seqStim(cell, clk, d), loadOn(out, load))
	if err != nil {
		return gridPoint{}, nil, err
	}
	dt := (3*period + period) / 2400
	// The 3rd edge's 50% crossing lies inside its clock ramp, so its energy
	// window ends before edge3+ramp+period/2, and reads no sample past the
	// first one after that.
	tstop := (math.Floor((edge3+ramp+period/2)/dt) + 3) * dt
	wf, err := c.TransientFrom(warm, tstop, dt, nil)
	if err != nil {
		return gridPoint{}, nil, err
	}
	clkV := wf.V("in_" + cell.Clock)
	q := wf.V("out_" + out)
	half := cfg.Vdd / 2
	activeRising := cell.Edge

	clkEdge2, ok := wf.CrossTime(clkV, half, activeRising, edge2-10e-12)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("2nd clock edge not found")
	}
	qRise, ok := wf.CrossTime(q, half, true, clkEdge2)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("Q rise not found")
	}
	trRise, ok := wf.TransitionTime(q, 0.2*cfg.Vdd, 0.8*cfg.Vdd, true, clkEdge2)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("Q rise transition not found")
	}
	clkEdge3, ok := wf.CrossTime(clkV, half, activeRising, edge3-10e-12)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("3rd clock edge not found")
	}
	qFall, ok := wf.CrossTime(q, half, false, clkEdge3)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("Q fall not found")
	}
	trFall, ok := wf.TransitionTime(q, 0.2*cfg.Vdd, 0.8*cfg.Vdd, false, clkEdge3)
	if !ok {
		return gridPoint{}, nil, fmt.Errorf("Q fall transition not found")
	}

	// Per-edge energy: integrate the supply over each capture window.
	win2, win3 := clkEdge2+period/2, clkEdge3+period/2
	if last := wf.Time[len(wf.Time)-1]; win3 >= last {
		return gridPoint{}, nil, fmt.Errorf("3rd edge energy window ends at %g s, past the simulated %g s", win3, last)
	}
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
	return gridPoint{
		dRise: qRise - clkEdge2, dFall: qFall - clkEdge3,
		trRise: trRise / 0.6, trFall: trFall / 0.6,
		eRise: window(clkEdge2-20e-12, win2),
		eFall: window(clkEdge3-20e-12, win3),
	}, wf.InitialOp(), nil
}
