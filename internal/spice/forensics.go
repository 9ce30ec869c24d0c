package spice

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// ringK is the number of trailing Newton iterations kept for post-mortems.
// The tail is what matters: a limit cycle or a diverging node shows up in
// the last few iterations, and a fixed-size ring keeps the always-on
// recording allocation-free.
const ringK = 8

// iterRec is the in-flight (unresolved) per-iteration record; node names
// are resolved only when a solve actually fails.
type iterRec struct {
	it       int
	maxDV    float64
	dvRow    int // node row with the largest proposed Newton step
	resid    float64
	residRow int // row with the worst tolerance-relative KCL/KVL residual
	gmin     float64
	temp     float64
}

// IterRecord is one Newton iteration as captured by the forensics ring
// buffer, with node names resolved.
type IterRecord struct {
	Iter      int     `json:"iter"`
	MaxDV     float64 `json:"max_dv"`     // largest proposed voltage step (V)
	DVNode    string  `json:"dv_node"`    // node proposing that step
	Residual  float64 `json:"residual"`   // worst row residual (A for nodes, V for sources)
	WorstNode string  `json:"worst_node"` // row with that residual
	Gmin      float64 `json:"gmin"`
	TempK     float64 `json:"temp_k"`
}

// DeviceResidual attributes a slice of the failure-point KCL residual to
// one circuit element: the magnitude of the element's unbalanced current
// injection at the worst-converging node.
type DeviceResidual struct {
	Device   string  `json:"device"`
	Residual float64 `json:"residual"` // |contribution at the worst node| (A)
}

// Convergence-failure phases: which solver strategy was active when the
// diagnosis was taken.
const (
	PhaseDirect           = "direct"
	PhaseGminLadder       = "gmin_ladder"
	PhaseTempContinuation = "temp_continuation"
)

// Diagnosis is the post-mortem of one nonconvergent Newton solve: where the
// iteration was when it died, which node refused to settle, and which
// devices inject the unbalanced current there. It serializes to JSON and is
// what charlib attaches to run-journal failure events.
type Diagnosis struct {
	Phase     string           `json:"phase"`
	TempK     float64          `json:"temp_k"`
	Gmin      float64          `json:"gmin"`
	Iters     int              `json:"iters"`
	WorstNode string           `json:"worst_node"`
	Residual  float64          `json:"residual"` // worst-row residual at failure
	MaxDV     float64          `json:"max_dv"`   // last proposed step (V)
	History   []IterRecord     `json:"history,omitempty"`
	Devices   []DeviceResidual `json:"devices,omitempty"`
}

// String renders a one-line summary suitable for error text.
func (d *Diagnosis) String() string {
	s := fmt.Sprintf("phase=%s T=%gK gmin=%g iters=%d worst node %s (residual %.3g, maxDV %.3g)",
		d.Phase, d.TempK, d.Gmin, d.Iters, d.WorstNode, d.Residual, d.MaxDV)
	if len(d.Devices) > 0 {
		s += fmt.Sprintf(", worst device %s (%.3g)", d.Devices[0].Device, d.Devices[0].Residual)
	}
	return s
}

// ConvergenceError wraps ErrNoConvergence with the forensic diagnosis of
// the failed solve. errors.Is(err, ErrNoConvergence) keeps working;
// errors.As / AsConvergenceError recover the diagnosis.
type ConvergenceError struct {
	Diag Diagnosis
}

func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("%v (%s)", ErrNoConvergence, e.Diag.String())
}

// Unwrap makes errors.Is(err, ErrNoConvergence) true.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// AsConvergenceError extracts the *ConvergenceError from an error chain,
// or nil when the failure carries no diagnosis.
func AsConvergenceError(err error) *ConvergenceError {
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}

// rowName resolves an MNA row index to a human-readable name: node rows
// get their interned node name, source branch rows a vsrc#k tag.
func (c *Circuit) rowName(i int) string {
	if i < 0 {
		return "?"
	}
	if i < len(c.names) {
		return c.names[i]
	}
	return fmt.Sprintf("vsrc#%d", i-len(c.names))
}

// diagnose assembles the post-mortem of a failed Newton solve from the
// iteration ring and the final iterate, including per-device residual
// attribution at the worst node. It runs only on the failure path, so its
// cost (one element-by-element re-stamp) is irrelevant.
func (c *Circuit) diagnose(ring *[ringK]iterRec, iters int, x []float64, t float64, prev []float64, dt, gmin, temp float64) *ConvergenceError {
	d := Diagnosis{Phase: PhaseDirect, TempK: temp, Gmin: gmin, Iters: iters}
	k := iters
	if k > ringK {
		k = ringK
	}
	for i := 0; i < k; i++ {
		r := ring[(iters-k+i)%ringK]
		d.History = append(d.History, IterRecord{
			Iter:      r.it,
			MaxDV:     r.maxDV,
			DVNode:    c.rowName(r.dvRow),
			Residual:  r.resid,
			WorstNode: c.rowName(r.residRow),
			Gmin:      r.gmin,
			TempK:     r.temp,
		})
	}
	worstRow := -1
	if k > 0 {
		last := ring[(iters-1)%ringK]
		worstRow = last.residRow
		d.WorstNode = c.rowName(last.residRow)
		d.Residual = last.resid
		d.MaxDV = last.maxDV
	}
	d.Devices = c.attributeResiduals(x, t, prev, dt, temp, worstRow, 5)
	if len(d.Devices) == 0 {
		// The ring records pre-update residuals, and linear rows (source
		// branches) are satisfied exactly by the final full-step update — so
		// the recorded row can be clean at the final iterate. Re-locate the
		// worst row there and attribute at it instead.
		if row, resid := c.worstResidualRow(x, t, prev, dt, gmin, temp); row >= 0 && resid > 0 {
			worstRow = row
			d.WorstNode = c.rowName(row)
			d.Residual = resid
			d.Devices = c.attributeResiduals(x, t, prev, dt, temp, row, 5)
		}
	}
	obs.C("spice.newton.diagnosed").Inc()
	return &ConvergenceError{Diag: d}
}

// worstResidualRow recomputes the tolerance-relative KCL/KVL residual of
// the final iterate over the fully stamped system and returns the worst row
// and its absolute residual ((-1, 0) when the system cannot be evaluated).
func (c *Circuit) worstResidualRow(x []float64, t float64, prev []float64, dt, gmin, temp float64) (int, float64) {
	n := c.systemSize()
	if len(x) != n {
		return -1, 0
	}
	nNode := len(c.names)
	g, b := c.stampGeneric(x, t, prev, dt, gmin, temp)
	row, score, resid := -1, 0.0, 0.0
	for i := 0; i < n; i++ {
		var r float64
		for j := 0; j < n; j++ {
			r += g.At(i, j) * x[j]
		}
		r -= b[i]
		tol := 1e-12 // node row: amperes
		if i >= nNode {
			tol = 1e-9 // source row: volts
		}
		if a := math.Abs(r); a/tol > score {
			score, row, resid = a/tol, i, a
		}
	}
	return row, resid
}

// stampGeneric assembles the full system at iterate x in one pass into a
// fresh dense matrix — every element's constant tier, the gmin diagonal,
// every step tier, every iteration tier — with no cache or snapshot, and
// with the elements bound to dense slots whatever the solver's backend:
// the forensic view, and the oracle the solver's tiered assembly must
// reproduce bit for bit.
func (c *Circuit) stampGeneric(x []float64, t float64, prev []float64, dt, gmin, temp float64) (*linalg.Matrix, []float64) {
	ctx, g := c.denseCtx(x, t, prev, dt, temp)
	for _, e := range c.elems {
		e.stampConst(ctx)
	}
	for i := 0; i < ctx.nNode; i++ {
		g.Add(i, i, gmin)
	}
	for _, e := range c.elems {
		e.stampStep(ctx)
	}
	for _, e := range c.elems {
		if m, ok := e.(*mosfet); ok {
			m.stampIter(ctx)
		}
	}
	return g, ctx.b
}

// denseCtx binds c's elements to the slots of a fresh dense matrix and
// returns a stamp context over it, with a fresh right-hand side.
func (c *Circuit) denseCtx(x []float64, t float64, prev []float64, dt, temp float64) (*stampCtx, *linalg.Matrix) {
	n, nNode := c.systemSize(), len(c.names)
	slots, _ := bindAll(c.elems, nNode, int32(n*n), denseSlot(n))
	vals := make([]float64, n*n+1)
	ctx := &stampCtx{vals: vals, slots: slots, b: make([]float64, n), x: x, prev: prev, time: t, dt: dt, nNode: nNode, temp: temp}
	return ctx, &linalg.Matrix{N: n, A: vals[:n*n]}
}

// attributeResiduals splits the KCL residual at MNA row "worst" between the
// circuit's elements: each element is stamped alone and its unbalanced
// injection at that row measured against the final iterate. The per-element
// contributions sum (with the gmin diagonal) to the total row residual, so
// the ranking names the devices that keep the node from settling.
func (c *Circuit) attributeResiduals(x []float64, t float64, prev []float64, dt, temp float64, worst, topN int) []DeviceResidual {
	n := c.systemSize()
	if worst < 0 || worst >= n || len(x) != n {
		return nil
	}
	ctx, g := c.denseCtx(x, t, prev, dt, temp)
	b := ctx.b
	out := make([]DeviceResidual, 0, len(c.elems))
	for i, e := range c.elems {
		clear(ctx.vals)
		clear(b)
		stampAll(e, ctx)
		r := -b[worst]
		for j := 0; j < n; j++ {
			r += g.At(worst, j) * x[j]
		}
		if a := math.Abs(r); a > 0 {
			out = append(out, DeviceResidual{Device: c.ElemName(i), Residual: a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Residual != out[j].Residual {
			return out[i].Residual > out[j].Residual
		}
		return out[i].Device < out[j].Device
	})
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}
