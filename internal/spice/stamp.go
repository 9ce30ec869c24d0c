package spice

import (
	"math"

	"repro/internal/device"
)

// stampCtx carries the MNA system being assembled and the analysis point
// the stamps are evaluated at. A matrix stamp adds into vals at a slot it
// reads from the slot table (see binder).
type stampCtx struct {
	vals  []float64 // matrix values by slot, plus the trash slot last
	slots []int32   // slot table: the slots of every element's entries
	b     []float64 // right-hand side
	x     []float64 // current Newton iterate (node voltages + branch currents)
	prev  []float64 // previous-timestep solution (nil for DC)
	time  float64   // current time (s); 0 for DC
	dt    float64   // timestep (s); 0 for DC
	nNode int       // number of node-voltage unknowns
	temp  float64   // simulation temperature (K)
}

// element is anything that can stamp itself into the MNA system. bind
// declares the element's matrix entries, in a fixed order that depends on
// topology only; its stamps then add into the slots the entries resolved
// to. The stamp is split by what each contribution depends on, so the
// Newton loop redoes only the part that changed (see solverState.prepare):
//
//   - stampConst: topology and (mode, dt, gmin, temp) only — conductances,
//     source incidence, companion conductances C/dt;
//   - stampStep: additionally the step's time and previous solution —
//     source values, companion history currents, clamp conductances.
//
// The MOSFET adds a third tier, stampIter, that depends on the Newton
// iterate.
type element interface {
	bind(b *binder)
	stampConst(ctx *stampCtx)
	stampStep(ctx *stampCtx)
}

// binder resolves the matrix entries elements declare into a slot table:
// on the sparse backend a slot is the entry's CSC offset, on the dense
// backend i·n+j. An entry in a ground row or column resolves to the trash
// slot one past the matrix values, which absorbs what a ground terminal
// drops, so stamp bodies need no ground tests. An element's positions in
// the table depend only on the elements before it, so every binding of a
// circuit gives it the same ones.
type binder struct {
	slots   []int32
	resolve func(i, j int) int32
	trash   int32
	nNode   int
}

// entry declares entry (i, j), negative meaning ground, and returns its
// position in the slot table.
func (b *binder) entry(i, j int) int32 {
	at := int32(len(b.slots))
	s := b.trash
	if i >= 0 && j >= 0 {
		s = b.resolve(i, j)
	}
	b.slots = append(b.slots, s)
	return at
}

// cond declares the entries of a conductance between nodes a and c —
// (a,a), (c,c), (a,c), (c,a) — and returns the position of the first.
func (b *binder) cond(a, c NodeID) int32 {
	at := b.entry(int(a), int(a))
	b.entry(int(c), int(c))
	b.entry(int(a), int(c))
	b.entry(int(c), int(a))
	return at
}

// bindAll binds every element, then the gmin diagonal of the node rows,
// and returns the slot table and the position of the gmin entries.
func bindAll(elems []element, nNode int, trash int32, resolve func(i, j int) int32) ([]int32, int32) {
	b := &binder{resolve: resolve, trash: trash, nNode: nNode}
	for _, e := range elems {
		e.bind(b)
	}
	gminAt := int32(len(b.slots))
	for i := 0; i < nNode; i++ {
		b.entry(i, i)
	}
	return b.slots, gminAt
}

// denseSlot resolves entries of an n×n row-major matrix.
func denseSlot(n int) func(i, j int) int32 {
	return func(i, j int) int32 { return int32(i*n + j) }
}

// stampAll stamps every tier of one element, for the per-element residual
// attribution of the forensics.
func stampAll(e element, ctx *stampCtx) {
	e.stampConst(ctx)
	e.stampStep(ctx)
	if m, ok := e.(*mosfet); ok {
		m.stampIter(ctx)
	}
}

// volt returns the voltage of a node in the solution vector x.
func volt(x []float64, n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return x[n]
}

// addG stamps a conductance g at the four slots cond declared from
// position at.
func (ctx *stampCtx) addG(at int32, g float64) {
	s := ctx.slots[at : at+4 : at+4]
	v := ctx.vals
	v[s[0]] += g
	v[s[1]] += g
	v[s[2]] += -g
	v[s[3]] += -g
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
// conductance C/dt in parallel with a history current. capConst adds the
// conductance at the slots cond declared from position at. At DC a
// capacitor is open and stamps nothing.
func capConst(ctx *stampCtx, at int32, c float64) {
	if ctx.dt > 0 {
		ctx.addG(at, c/ctx.dt)
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
	at   int32
}

func (r *resistor) bind(b *binder)           { r.at = b.cond(r.a, r.b) }
func (r *resistor) stampConst(ctx *stampCtx) { ctx.addG(r.at, 1.0/r.r) }
func (r *resistor) stampStep(*stampCtx)      {}

type capacitor struct {
	a, b NodeID
	c    float64
	at   int32
}

func (c *capacitor) bind(b *binder)           { c.at = b.cond(c.a, c.b) }
func (c *capacitor) stampConst(ctx *stampCtx) { capConst(ctx, c.at, c.c) }
func (c *capacitor) stampStep(ctx *stampCtx)  { capStep(ctx, c.a, c.b, c.c) }

type vsource struct {
	pos, neg NodeID
	branch   int
	fn       SourceFn
	at       int32
}

// bind declares the incidence entries (pos,k), (k,pos), (neg,k), (k,neg)
// of branch row k.
func (v *vsource) bind(b *binder) {
	k := b.nNode + v.branch
	v.at = b.entry(int(v.pos), k)
	b.entry(k, int(v.pos))
	b.entry(int(v.neg), k)
	b.entry(k, int(v.neg))
}

func (v *vsource) stampConst(ctx *stampCtx) {
	s := ctx.slots[v.at : v.at+4 : v.at+4]
	ctx.vals[s[0]] += 1
	ctx.vals[s[1]] += 1
	ctx.vals[s[2]] += -1
	ctx.vals[s[3]] += -1
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
	at   int32
}

func (cl *clamp) bind(b *binder)       { cl.at = b.entry(int(cl.node), int(cl.node)) }
func (cl *clamp) stampConst(*stampCtx) {}

func (cl *clamp) stampStep(ctx *stampCtx) {
	if cl.node == Ground {
		return
	}
	// A disabled clamp (g(t) = 0) still adds its zero. Skipping it could
	// only change the sign of a zero entry, but the assembly is pinned bit
	// for bit (TestTransientDigest).
	g := cl.g(ctx.time)
	ctx.vals[ctx.slots[cl.at]] += g
	ctx.b[cl.node] += g * cl.vt
}

type isource struct {
	from, to NodeID
	fn       SourceFn
}

func (s *isource) bind(*binder)         {}
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
	at         int32 // slot-table position of the first entry (layout: mosGS...)

	// The exact-repeat memo of m.Conductances: the bias and temperature of
	// the last evaluation and its results (see conductances).
	memo bool
	in   [3]float64 // vgs, vds, temp
	out  [3]float64 // ids, gm, gds
}

// Slot-table layout of a mosfet, relative to its at: the conductance groups
// of the four Meyer companions and of gds (d-s), then the gm entries (d,g)
// and (s,g).
const (
	mosGS = 4 * iota
	mosGD
	mosDB
	mosSB
	mosDS
	mosDG
	mosSG = mosDG + 1
	mosN  = mosSG + 1
)

func (t *mosfet) bind(b *binder) {
	t.at = b.cond(t.g, t.s)
	b.cond(t.g, t.d)
	b.cond(t.d, t.b)
	b.cond(t.s, t.b)
	b.cond(t.d, t.s)
	b.entry(int(t.d), int(t.g))
	b.entry(int(t.s), int(t.g))
}

func (t *mosfet) stampConst(ctx *stampCtx) {
	if ctx.dt > 0 {
		cg := t.m.GateCap(ctx.temp)
		cj := t.m.JunctionCap(ctx.temp)
		capConst(ctx, t.at+mosGS, cg/2)
		capConst(ctx, t.at+mosGD, cg/2)
		capConst(ctx, t.at+mosDB, cj)
		capConst(ctx, t.at+mosSB, cj)
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

// conductances is m.Conductances, reusing the last evaluation when vgs,
// vds and temp repeat it bit for bit. Conductances is a pure function of
// those and the model card, so the reuse is exact; the memo is dropped at
// the start of every analysis (forget).
func (t *mosfet) conductances(vgs, vds, temp float64) (ids, gm, gds float64) {
	if t.memo && math.Float64bits(vgs) == math.Float64bits(t.in[0]) &&
		math.Float64bits(vds) == math.Float64bits(t.in[1]) && math.Float64bits(temp) == math.Float64bits(t.in[2]) {
		return t.out[0], t.out[1], t.out[2]
	}
	ids, gm, gds = t.m.Conductances(vgs, vds, temp)
	t.memo, t.in, t.out = true, [3]float64{vgs, vds, temp}, [3]float64{ids, gm, gds}
	return ids, gm, gds
}

func (t *mosfet) stampIter(ctx *stampCtx) {
	vd := volt(ctx.x, t.d)
	vg := volt(ctx.x, t.g)
	vs := volt(ctx.x, t.s)
	vgs := vg - vs
	vds := vd - vs

	ids, gm, gds := t.conductances(vgs, vds, ctx.temp)

	// Linearized drain current: i = ids + gm*(dvgs) + gds*(dvds).
	// Equivalent current source for the Newton companion.
	ieq := ids - gm*vgs - gds*vds

	// gds between d and s.
	ctx.addG(t.at+mosDS, gds)
	// gm as a voltage-controlled current source d<-s controlled by (g,s):
	// (d,g), (d,s), (s,g), (s,s).
	s := ctx.slots[t.at : t.at+mosN : t.at+mosN]
	v := ctx.vals
	v[s[mosDG]] += gm
	v[s[mosDS+2]] += -gm
	v[s[mosSG]] += -gm
	v[s[mosDS+1]] += gm
	// ieq flows from drain to source inside the device.
	ctx.addI(t.d, t.s, ieq)
}
