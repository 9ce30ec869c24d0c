package spice

import (
	"repro/internal/device"
)

// mnaMatrix is the matrix interface elements stamp through: the dense
// linalg.Matrix, the sparse linalg.Sparse (writes resolve against the
// circuit's compiled sparsity pattern), and the pattern recorder that
// discovers that pattern all satisfy it.
type mnaMatrix interface {
	Add(i, j int, v float64)
}

// stampCtx carries the MNA system being assembled and the analysis point
// the stamps are evaluated at.
type stampCtx struct {
	g     mnaMatrix // conductance/incidence matrix
	b     []float64 // right-hand side
	x     []float64 // current Newton iterate (node voltages + branch currents)
	prev  []float64 // previous-timestep solution (nil for DC)
	time  float64   // current time (s); 0 for DC
	dt    float64   // timestep (s); 0 for DC
	nNode int       // number of node-voltage unknowns
	gmin  float64   // convergence-aid conductance to ground
	temp  float64   // simulation temperature (K)
}

// element is anything that can stamp itself into the MNA system. Its stamp
// is split by what each contribution depends on, so the Newton loop redoes
// only the part that changed (see solverState.prepare):
//
//   - stampConst: topology and (mode, dt, gmin, temp) only — conductances,
//     source incidence, companion conductances C/dt;
//   - stampStep: additionally the step's time and previous solution —
//     source values, companion history currents, clamp conductances.
//
// Nonlinear elements add a third tier that depends on the Newton iterate.
// Which Add calls a tier makes may depend on topology and the analysis
// mode, never on values: the sparse backend replays them by position.
type element interface {
	stampConst(ctx *stampCtx)
	stampStep(ctx *stampCtx)
}

// nonlinear is an element whose stamp also depends on the Newton iterate:
// stampIter stamps its linearization at ctx.x.
type nonlinear interface {
	element
	stampIter(ctx *stampCtx)
}

// stampAll stamps every tier of one element, for pattern discovery and the
// per-element residual attribution of the forensics.
func stampAll(e element, ctx *stampCtx) {
	e.stampConst(ctx)
	e.stampStep(ctx)
	if nl, ok := e.(nonlinear); ok {
		nl.stampIter(ctx)
	}
}

// volt returns the voltage of a node in the solution vector x.
func volt(x []float64, n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return x[n]
}

// addG stamps a conductance between two nodes.
func (ctx *stampCtx) addG(a, b NodeID, g float64) {
	if a != Ground {
		ctx.g.Add(int(a), int(a), g)
	}
	if b != Ground {
		ctx.g.Add(int(b), int(b), g)
	}
	if a != Ground && b != Ground {
		ctx.g.Add(int(a), int(b), -g)
		ctx.g.Add(int(b), int(a), -g)
	}
}

// addI stamps a current source of value i flowing from node "from" into node
// "to" (i.e. i is extracted from "from" and injected into "to").
func (ctx *stampCtx) addI(from, to NodeID, i float64) {
	if from != Ground {
		ctx.b[from] -= i
	}
	if to != Ground {
		ctx.b[to] += i
	}
}

// capConst and capStep stamp the backward-Euler companion of a capacitor
// c between a and b during transient steps: i = C/dt*(v - vPrev), a
// conductance C/dt in parallel with a history current. At DC a capacitor
// is open and stamps nothing.
func capConst(ctx *stampCtx, a, b NodeID, c float64) {
	if ctx.dt > 0 {
		ctx.addG(a, b, c/ctx.dt)
	}
}

func capStep(ctx *stampCtx, a, b NodeID, c float64) {
	if ctx.dt > 0 {
		geq := c / ctx.dt
		vp := volt(ctx.prev, a) - volt(ctx.prev, b)
		// History term: inject geq*vp from b into a.
		ctx.addI(b, a, geq*vp)
	}
}

type resistor struct {
	a, b NodeID
	r    float64
}

func (r *resistor) stampConst(ctx *stampCtx) { ctx.addG(r.a, r.b, 1.0/r.r) }
func (r *resistor) stampStep(*stampCtx)      {}

type capacitor struct {
	a, b NodeID
	c    float64
}

func (c *capacitor) stampConst(ctx *stampCtx) { capConst(ctx, c.a, c.b, c.c) }
func (c *capacitor) stampStep(ctx *stampCtx)  { capStep(ctx, c.a, c.b, c.c) }

type vsource struct {
	pos, neg NodeID
	branch   int
	fn       SourceFn
}

func (v *vsource) stampConst(ctx *stampCtx) {
	k := ctx.nNode + v.branch
	if v.pos != Ground {
		ctx.g.Add(int(v.pos), k, 1)
		ctx.g.Add(k, int(v.pos), 1)
	}
	if v.neg != Ground {
		ctx.g.Add(int(v.neg), k, -1)
		ctx.g.Add(k, int(v.neg), -1)
	}
}

func (v *vsource) stampStep(ctx *stampCtx) {
	ctx.b[ctx.nNode+v.branch] += v.fn(ctx.time)
}

// clamp is a switchable conductance to a target voltage: i = g(t)*(v - vt).
// With g = 0 it vanishes. Used to force bistable circuits onto a chosen
// branch before re-solving unaided.
type clamp struct {
	node NodeID
	vt   float64
	g    SourceFn
}

func (cl *clamp) stampConst(*stampCtx) {}

func (cl *clamp) stampStep(ctx *stampCtx) {
	if cl.node == Ground {
		return
	}
	// Stamp unconditionally, even when g(t) = 0: the Add-call sequence of
	// every element must depend only on topology and analysis mode so the
	// recorded slot sequence (solverState.seq) replays exactly. Adding a
	// zero is free; branching on the value would derail the replay.
	g := cl.g(ctx.time)
	ctx.g.Add(int(cl.node), int(cl.node), g)
	ctx.b[cl.node] += g * cl.vt
}

type isource struct {
	from, to NodeID
	fn       SourceFn
}

func (s *isource) stampConst(*stampCtx) {}

func (s *isource) stampStep(ctx *stampCtx) {
	ctx.addI(s.from, s.to, s.fn(ctx.time))
}

// mosfet stamps the linearized cryogenic compact model plus its Meyer-style
// device capacitances: the bias-averaged gate capacitance split between
// gate-source and gate-drain, and a junction capacitance from drain and
// source to bulk. The capacitor companions live in the constant and step
// tiers; only the linearization is redone every Newton iteration.
type mosfet struct {
	m          *device.Model
	d, g, s, b NodeID
}

func (t *mosfet) stampConst(ctx *stampCtx) {
	if ctx.dt > 0 {
		cg := t.m.GateCap(ctx.temp)
		cj := t.m.JunctionCap(ctx.temp)
		capConst(ctx, t.g, t.s, cg/2)
		capConst(ctx, t.g, t.d, cg/2)
		capConst(ctx, t.d, t.b, cj)
		capConst(ctx, t.s, t.b, cj)
	}
}

func (t *mosfet) stampStep(ctx *stampCtx) {
	if ctx.dt > 0 {
		cg := t.m.GateCap(ctx.temp)
		cj := t.m.JunctionCap(ctx.temp)
		capStep(ctx, t.g, t.s, cg/2)
		capStep(ctx, t.g, t.d, cg/2)
		capStep(ctx, t.d, t.b, cj)
		capStep(ctx, t.s, t.b, cj)
	}
}

func (t *mosfet) stampIter(ctx *stampCtx) {
	vd := volt(ctx.x, t.d)
	vg := volt(ctx.x, t.g)
	vs := volt(ctx.x, t.s)
	vgs := vg - vs
	vds := vd - vs

	ids, gm, gds := t.m.Conductances(vgs, vds, ctx.temp)

	// Linearized drain current: i = ids + gm*(dvgs) + gds*(dvds).
	// Equivalent current source for the Newton companion.
	ieq := ids - gm*vgs - gds*vds

	// gds between d and s.
	ctx.addG(t.d, t.s, gds)
	// gm as a voltage-controlled current source d<-s controlled by (g,s).
	if t.d != Ground {
		if t.g != Ground {
			ctx.g.Add(int(t.d), int(t.g), gm)
		}
		if t.s != Ground {
			ctx.g.Add(int(t.d), int(t.s), -gm)
		}
	}
	if t.s != Ground {
		if t.g != Ground {
			ctx.g.Add(int(t.s), int(t.g), -gm)
		}
		ctx.g.Add(int(t.s), int(t.s), gm)
	}
	// ieq flows from drain to source inside the device.
	ctx.addI(t.d, t.s, ieq)
}
