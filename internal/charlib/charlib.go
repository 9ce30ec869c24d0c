// Package charlib characterizes standard cells into liberty libraries by
// driving the SPICE engine, substituting for the paper's Synopsys
// SiliconSmart flow. Every cell is measured on a 7x7 grid of input signal
// slews and output load capacitances (the paper's setup), extracting
// propagation delays, output transitions, per-event switching/internal
// energy, and state-averaged leakage power.
package charlib

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/spice"
)

// Config controls one characterization corner.
type Config struct {
	Vdd   float64   // supply voltage (V)
	TempK float64   // temperature (K)
	Slews []float64 // input transition times (full-swing equivalent, s)
	Loads []float64 // output load capacitances (F)
	// Workers bounds the cells in flight and the shared pool their grid
	// rows and leakage states drain through; 0 = GOMAXPROCS.
	Workers int

	// NewtonIterLimit caps SPICE Newton iterations per solve (0 = solver
	// default). Forensics/debug knob: a tiny cap forces nonconvergence so
	// the diagnosis pipeline can be exercised end to end.
	NewtonIterLimit int
	// SkipLeakage skips the 2^n static-power sweep — useful when debugging
	// a single failing arc without paying for the leakage enumeration.
	SkipLeakage bool
}

// DefaultConfig returns the paper's 7x7 characterization grid at the given
// temperature.
func DefaultConfig(tempK float64) Config {
	return Config{
		Vdd:   0.7,
		TempK: tempK,
		Slews: geometric(2.5e-12, 2, 7), // 2.5 ps .. 160 ps
		Loads: geometric(0.2e-15, 2, 7), // 0.2 fF .. 12.8 fF
	}
}

// QuickConfig returns a reduced 3x3 grid for fast unit tests.
func QuickConfig(tempK float64) Config {
	return Config{
		Vdd:   0.7,
		TempK: tempK,
		Slews: []float64{5e-12, 20e-12, 80e-12},
		Loads: []float64{0.4e-15, 1.6e-15, 6.4e-15},
	}
}

func geometric(start, ratio float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}

// workersOf resolves the configured worker count.
func workersOf(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CharacterizeCell measures one cell and returns its liberty view. The
// context carries the parent observability span, if any.
func CharacterizeCell(ctx context.Context, cell *pdk.Cell, cfg Config) (*liberty.Cell, error) {
	return characterizeCell(ctx, cell, cfg, make(chan struct{}, workersOf(cfg)))
}

// characterizeCell measures one cell on a caller-provided bounded worker
// pool, so a library run shares one pool across all its cells.
func characterizeCell(ctx context.Context, cell *pdk.Cell, cfg Config, work chan struct{}) (*liberty.Cell, error) {
	ctx, span := obs.Start(ctx, "charlib.cell")
	span.SetAttr("cell", cell.Name)
	defer span.End()
	ch := &charer{cfg: cfg, work: work}
	lc, err := ch.cell(ctx, cell)
	obs.C("charlib.cells").Inc()
	return lc, err
}

// CharacterizeLibrary measures all cells (in parallel) and assembles the
// library. Progress is reported on the charlib.cells and charlib.arcs
// tasks (the -progress ticker).
//
// Two levels of bounded concurrency share one budget: up to Workers cells
// are in flight, and their measurement units (grid rows, leakage states)
// drain through one shared Workers-slot pool — so a single big cell keeps
// every worker busy instead of serializing a corner, and a swarm of small
// cells cannot oversubscribe the host.
func CharacterizeLibrary(ctx context.Context, name string, cells []*pdk.Cell, cfg Config) (*liberty.Library, error) {
	ctx, span := obs.Start(ctx, "charlib.library")
	span.SetAttr("library", name)
	span.SetAttr("temp_k", cfg.TempK)
	span.SetAttr("cells", len(cells))
	defer span.End()
	workers := workersOf(cfg)
	lib := &liberty.Library{Name: name, TempK: cfg.TempK, Vdd: cfg.Vdd}
	results := make([]*liberty.Cell, len(cells))
	errs := make([]error, len(cells))
	cellsTask := obs.Progress("charlib.cells", int64(len(cells)))
	arcsTask := obs.Progress("charlib.arcs", 0)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	work := make(chan struct{}, workers)
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = characterizeCell(ctx, c, cfg, work)
			cellsTask.Inc()
		}()
	}
	wg.Wait()
	cellsTask.Finish()
	arcsTask.Finish()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("charlib: cell %s: %w", cells[i].Name, err)
		}
		lib.Cells = append(lib.Cells, results[i])
	}
	return lib, nil
}

type charer struct {
	cfg Config
	// work is the shared bounded worker pool. Tokens are held only by leaf
	// measurement units (a grid row's transient chain, one leakage state),
	// never by anything that spawns more work — so the pool cannot
	// deadlock however deep the fan-out nests.
	work chan struct{}
	// fixedGrid runs combinational transients on the fixed grid to tstop,
	// without coasting: the oracle the tests compare coasting against.
	fixedGrid bool
}

// acquire takes a worker slot; release returns it.
func (ch *charer) acquire() {
	if ch.work != nil {
		ch.work <- struct{}{}
	}
}

func (ch *charer) release() {
	if ch.work != nil {
		<-ch.work
	}
}

// newCircuit builds an empty circuit at the corner temperature with the
// configured Newton iteration budget applied.
func (ch *charer) newCircuit() *spice.Circuit {
	c := spice.New(ch.cfg.TempK)
	c.MaxIter = ch.cfg.NewtonIterLimit
	return c
}

// journalFailure records a characterization failure in the run journal:
// the failing (cell, arc, slew, load, temperature) point, plus the SPICE
// convergence diagnosis when the error carries one — instead of letting
// the forensic context die inside the error string.
func (ch *charer) journalFailure(cell *pdk.Cell, arc string, slew, load float64, err error) {
	obs.C("charlib.failures").Inc()
	j := obs.J()
	if j == nil {
		return
	}
	attrs := map[string]string{
		"cell":   cell.Name,
		"arc":    arc,
		"temp_k": strconv.FormatFloat(ch.cfg.TempK, 'g', -1, 64),
	}
	if slew > 0 || load > 0 {
		attrs["slew"] = strconv.FormatFloat(slew, 'g', 6, 64)
		attrs["load"] = strconv.FormatFloat(load, 'g', 6, 64)
	}
	var detail any
	if ce := spice.AsConvergenceError(err); ce != nil {
		attrs["worst_node"] = ce.Diag.WorstNode
		attrs["phase"] = ce.Diag.Phase
		if len(ce.Diag.Devices) > 0 {
			attrs["worst_device"] = ce.Diag.Devices[0].Device
		}
		detail = ce.Diag
	}
	j.Failure("charlib.arc", err.Error(), attrs, detail)
}

// arcJob is one timing arc of a cell: the timing group to fill (related pin,
// sense, type), the per-row point function of its grid sweep, and, once the
// sweep returns, its tables or error.
type arcJob struct {
	tm  *liberty.Timing
	row rowFunc
	pw  *liberty.InternalPower
	err error
}

// cell measures every arc of the cell concurrently (each arc's grid rows
// drain through the shared worker pool) and assembles the liberty view in
// deterministic pin/arc order, independent of completion order. ctx carries
// the cell span: each arc and the leakage sweep open child spans on their
// worker goroutines, so cost attribution sees per-arc paths instead of one
// opaque cell.
func (ch *charer) cell(ctx context.Context, cell *pdk.Cell) (*liberty.Cell, error) {
	// The arc task is shared across all cells of the library run; each cell
	// grows its total as it plans arcs (incremental discovery), so the
	// percentage stays honest while the plan is still unfolding.
	arcsTask := obs.Progress("charlib.arcs", 0)
	lc := &liberty.Cell{
		Name:       cell.Name,
		Area:       cell.Area(),
		Sequential: cell.Seq,
		ClockPin:   cell.Clock,
	}
	var wg sync.WaitGroup
	var leak float64
	var leakErr error
	if !ch.cfg.SkipLeakage {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, lspan := obs.Start(ctx, "charlib.leakage")
			defer lspan.End()
			leak, leakErr = ch.leakage(cell)
		}()
	}

	for _, in := range cell.Inputs {
		lc.Pins = append(lc.Pins, &liberty.Pin{
			Name:      in,
			Direction: "input",
			Cap:       cell.InputCap(in, ch.cfg.TempK),
		})
	}
	// Plan the arcs of each output: the clock arc of a sequential cell, or
	// one arc per sensitizable input of a combinational one.
	type pinArcs struct {
		pin  *liberty.Pin
		arcs []*arcJob
	}
	var plan []pinArcs
	for _, out := range cell.Outputs {
		pa := pinArcs{pin: &liberty.Pin{
			Name:      out,
			Direction: "output",
			Function:  functionString(cell, out),
		}}
		if cell.Seq {
			tm := &liberty.Timing{RelatedPin: cell.Clock, Sense: liberty.SenseNonUnate, Type: "rising_edge"}
			if !cell.Edge {
				tm.Type = "falling_edge"
			}
			pa.arcs = append(pa.arcs, &arcJob{tm: tm, row: ch.clockRow(cell, out)})
		} else {
			for _, in := range cell.Inputs {
				if vec, o0, o1, ok := sensitizingVector(cell, in, out); ok {
					tm := &liberty.Timing{RelatedPin: in, Sense: senseOf(cell, in, out)}
					pa.arcs = append(pa.arcs, &arcJob{tm: tm, row: ch.combRow(cell, in, out, vec, o0, o1)})
				}
			}
		}
		plan = append(plan, pa)
		arcsTask.AddTotal(int64(len(pa.arcs)))
		for _, a := range pa.arcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arc := a.tm.RelatedPin + "->" + out
				_, aspan := obs.Start(ctx, "charlib.arc")
				if aspan != nil {
					aspan.SetAttr("arc", arc)
				}
				defer aspan.End()
				a.pw, a.err = ch.sweep(cell, arc, a.tm, a.row)
				arcsTask.Inc()
				if a.err == nil {
					obs.C("charlib.arcs").Inc()
				}
			}()
		}
	}
	wg.Wait()

	// Deterministic error precedence matches the old sequential order:
	// leakage first, then outputs in order, arcs in input order.
	if leakErr != nil {
		ch.journalFailure(cell, "leakage", 0, 0, leakErr)
		return nil, fmt.Errorf("leakage: %w", leakErr)
	}
	lc.LeakagePower = leak
	for _, pa := range plan {
		for _, a := range pa.arcs {
			if a.err != nil {
				return nil, fmt.Errorf("%s->%s: %w", a.tm.RelatedPin, pa.pin.Name, a.err)
			}
			pa.pin.Timings = append(pa.pin.Timings, a.tm)
			pa.pin.Powers = append(pa.pin.Powers, a.pw)
		}
		lc.Pins = append(lc.Pins, pa.pin)
	}
	return lc, nil
}

// sensitizingVector finds an assignment of the side inputs under which the
// output depends on pin "in". It returns the vector (as a bitmask over the
// cell's input order, with the target pin's bit meaningless), the output
// value with in=0 and with in=1, and whether sensitization exists.
func sensitizingVector(cell *pdk.Cell, in, out string) (vec int, o0, o1 bool, ok bool) {
	tt, has := cell.Truth(out)
	if !has {
		return 0, false, false, false
	}
	pos := pinIndex(cell, in)
	n := len(cell.Inputs)
	for v := 0; v < 1<<uint(n); v++ {
		if v&(1<<uint(pos)) != 0 {
			continue // enumerate with target bit 0
		}
		lo := tt&(1<<uint(v)) != 0
		hi := tt&(1<<uint(v|1<<uint(pos))) != 0
		if lo != hi {
			return v, lo, hi, true
		}
	}
	return 0, false, false, false
}

// senseOf classifies the arc's unateness across all sensitizing vectors.
func senseOf(cell *pdk.Cell, in, out string) string {
	tt, has := cell.Truth(out)
	if !has {
		return liberty.SenseNonUnate
	}
	pos := pinIndex(cell, in)
	n := len(cell.Inputs)
	posU, negU := false, false
	for v := 0; v < 1<<uint(n); v++ {
		if v&(1<<uint(pos)) != 0 {
			continue
		}
		lo := tt&(1<<uint(v)) != 0
		hi := tt&(1<<uint(v|1<<uint(pos))) != 0
		if !lo && hi {
			posU = true
		}
		if lo && !hi {
			negU = true
		}
	}
	switch {
	case posU && negU:
		return liberty.SenseNonUnate
	case negU:
		return liberty.SenseNegative
	default:
		return liberty.SensePositive
	}
}

func pinIndex(cell *pdk.Cell, pin string) int {
	for i, p := range cell.Inputs {
		if p == pin {
			return i
		}
	}
	return -1
}

// functionString renders the output's truth table as a liberty
// sum-of-products expression.
func functionString(cell *pdk.Cell, out string) string {
	tt, ok := cell.Truth(out)
	if !ok {
		if cell.Seq {
			return "IQ"
		}
		return ""
	}
	n := len(cell.Inputs)
	if tt == 0 {
		return "0"
	}
	full := uint64(1)<<uint(1<<uint(n)) - 1
	if n == 6 {
		full = ^uint64(0)
	}
	if tt == full {
		return "1"
	}
	terms := ""
	for v := 0; v < 1<<uint(n); v++ {
		if tt&(1<<uint(v)) == 0 {
			continue
		}
		term := ""
		for i := 0; i < n; i++ {
			if term != "" {
				term += "*"
			}
			if v&(1<<uint(i)) == 0 {
				term += "!" + cell.Inputs[i]
			} else {
				term += cell.Inputs[i]
			}
		}
		if terms != "" {
			terms += " + "
		}
		terms += "(" + term + ")"
	}
	return terms
}

// leakage returns the state-averaged static power of the cell. The 2^n
// input states are independent operating-point problems, so they drain
// through the shared worker pool; the average is summed in state order to
// keep the result bit-identical to a sequential sweep.
func (ch *charer) leakage(cell *pdk.Cell) (float64, error) {
	n := len(cell.Inputs)
	if n > 6 {
		return 0, fmt.Errorf("too many inputs")
	}
	count := 1 << uint(n)
	powers := make([]float64, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for v := 0; v < count; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			ch.acquire()
			defer ch.release()
			powers[v], errs[v] = ch.staticPower(cell, v)
		}(v)
	}
	wg.Wait()
	var sum float64
	for v := 0; v < count; v++ {
		if errs[v] != nil {
			return 0, errs[v]
		}
		sum += powers[v]
	}
	return sum / float64(count), nil
}

// staticPower computes Vdd * Isupply at one input state. Sequential cells
// contain bistable feedback loops whose symmetric (metastable) DC solution
// would report massive short-circuit current; a femto-scale pulldown on the
// state nodes first steers Newton onto a stable digital branch, and the
// operating point is then re-solved without the aid.
func (ch *charer) staticPower(cell *pdk.Cell, vec int) (float64, error) {
	c, br, _, err := ch.build(cell, ch.vectorStim(vec), func(string) float64 { return 0 })
	if err != nil {
		return 0, err
	}
	if !cell.Seq {
		x, err := c.OpPoint()
		if err != nil {
			return 0, err
		}
		return ch.cfg.Vdd * math.Abs(x[c.NumNodes()+br]), nil
	}
	// Symmetry breaker on the latch state nodes (created by the sequential
	// cell generators): a hard clamp to ground, enabled for the first solve
	// only, forces each feedback loop onto a definite digital branch.
	aidOn := true
	aid := func(float64) float64 {
		if aidOn {
			return 0.05 // 20 Ohm: overpowers any cell pull-up at any drive
		}
		return 0
	}
	for _, state := range []string{"mi", "si", "li"} {
		if id, ok := c.LookupNode("dut." + state); ok {
			c.AddClamp(id, 0, aid)
		}
	}
	seed, err := c.OpPoint()
	if err != nil {
		return 0, err
	}
	aidOn = false
	x, err := c.OpPointFrom(seed)
	if err != nil {
		return 0, err
	}
	return ch.cfg.Vdd * math.Abs(x[c.NumNodes()+br]), nil
}
