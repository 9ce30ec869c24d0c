// Package spice implements a SPICE-class circuit simulator: modified nodal
// analysis with Newton-Raphson DC operating-point solution and
// backward-Euler transient analysis. It substitutes for the commercial SPICE
// engine the paper uses for standard-cell characterization: the cryogenic
// compact model from internal/device is evaluated directly as the MOSFET
// element.
package spice

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// NodeID identifies a circuit node. Ground is a fixed negative ID.
type NodeID int

// Ground is the reference node ("0" / "gnd" / "vss" in netlists map to it).
const Ground NodeID = -1

// Circuit is a flat transistor-level circuit at a fixed temperature.
type Circuit struct {
	Temp float64 // simulation temperature in kelvin
	// MaxIter caps Newton iterations per solve attempt; 0 uses the solver
	// default. A deliberately tiny cap is the supported way to force
	// nonconvergence diagnostics (forensics tests, failure drills).
	MaxIter int
	// Solver selects the linear-solver backend (default SolverAuto: sparse
	// with reusable symbolic factorization, dense for tiny systems).
	// SolverDense is the cross-check oracle.
	Solver    SolverKind
	names     []string
	index     map[string]NodeID
	elems     []element
	elemNames []string // per-element names ("" = auto, see ElemName)
	nvsrc     int
	solver    *solverState // lazily built, invalidated on topology change
}

// New returns an empty circuit that will be simulated at the given
// temperature.
func New(tempK float64) *Circuit {
	return &Circuit{Temp: tempK, index: make(map[string]NodeID)}
}

// Node interns a node name and returns its ID. The names "0", "gnd", and
// "vss!" style ground aliases return Ground.
func (c *Circuit) Node(name string) NodeID {
	switch name {
	case "0", "gnd", "GND", "vss", "VSS":
		return Ground
	}
	if id, ok := c.index[name]; ok {
		return id
	}
	id := NodeID(len(c.names))
	c.names = append(c.names, name)
	c.index[name] = id
	return id
}

// NodeName returns the interned name for an ID.
func (c *Circuit) NodeName(id NodeID) string {
	if id == Ground {
		return "0"
	}
	return c.names[id]
}

// LookupNode returns the ID of an already-interned node without creating
// it.
func (c *Circuit) LookupNode(name string) (NodeID, bool) {
	id, ok := c.index[name]
	return id, ok
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.names) }

// addElem appends an element with an empty (auto) name slot.
func (c *Circuit) addElem(e element) {
	c.elems = append(c.elems, e)
	c.elemNames = append(c.elemNames, "")
}

// NameLast names the most recently added element, so nonconvergence
// forensics can attribute residuals to "dut.q.N(A)" instead of "elem#17".
// Builders (the netlist parser, pdk cell instantiation) call it right after
// each Add*.
func (c *Circuit) NameLast(name string) {
	if len(c.elemNames) > 0 {
		c.elemNames[len(c.elemNames)-1] = name
	}
}

// ElemName returns the forensic name of element i: the builder-assigned
// name when present, otherwise an auto tag derived from the element kind.
func (c *Circuit) ElemName(i int) string {
	if i < 0 || i >= len(c.elems) {
		return "?"
	}
	if c.elemNames[i] != "" {
		return c.elemNames[i]
	}
	kind := "elem"
	switch c.elems[i].(type) {
	case *resistor:
		kind = "R"
	case *capacitor:
		kind = "C"
	case *vsource:
		kind = "V"
	case *isource:
		kind = "I"
	case *mosfet:
		kind = "M"
	case *clamp:
		kind = "clamp"
	}
	return fmt.Sprintf("%s#%d", kind, i)
}

// AddResistor adds a linear resistor between nodes a and b.
func (c *Circuit) AddResistor(a, b NodeID, ohms float64) {
	c.addElem(&resistor{a, b, ohms})
}

// AddCapacitor adds a linear capacitor between nodes a and b.
func (c *Circuit) AddCapacitor(a, b NodeID, farads float64) {
	c.addElem(&capacitor{a, b, farads})
}

// SourceFn gives a source value at time t (seconds). DC analyses evaluate it
// at t = 0.
type SourceFn func(t float64) float64

// DC returns a constant source function.
func DC(v float64) SourceFn { return func(float64) float64 { return v } }

// PWL returns a piecewise-linear source through the given (time, value)
// points, which must be time-sorted. Before the first point the first value
// holds; after the last, the last value holds.
func PWL(pts ...[2]float64) SourceFn {
	return func(t float64) float64 {
		if len(pts) == 0 {
			return 0
		}
		if t <= pts[0][0] {
			return pts[0][1]
		}
		for i := 1; i < len(pts); i++ {
			if t <= pts[i][0] {
				t0, v0 := pts[i-1][0], pts[i-1][1]
				t1, v1 := pts[i][0], pts[i][1]
				if t1 == t0 {
					return v1
				}
				return v0 + (v1-v0)*(t-t0)/(t1-t0)
			}
		}
		return pts[len(pts)-1][1]
	}
}

// Pulse returns a SPICE-style pulse source: v1 -> v2 with the given delay,
// rise, fall, width, and period. A period <= 0 gives a single pulse, as in
// SPICE.
func Pulse(v1, v2, delay, rise, fall, width, period float64) SourceFn {
	return func(t float64) float64 {
		if t < delay {
			return v1
		}
		tt := t - delay
		if period > 0 {
			tt = math.Mod(tt, period)
		}
		switch {
		case tt < rise:
			return v1 + (v2-v1)*tt/rise
		case tt < rise+width:
			return v2
		case tt < rise+width+fall:
			return v2 + (v1-v2)*(tt-rise-width)/fall
		default:
			return v1
		}
	}
}

// AddVSource adds an independent voltage source (pos relative to neg) and
// returns its branch index for current measurement.
func (c *Circuit) AddVSource(pos, neg NodeID, fn SourceFn) int {
	idx := c.nvsrc
	c.nvsrc++
	c.addElem(&vsource{pos, neg, idx, fn})
	return idx
}

// AddISource adds an independent current source pushing current from node
// "from" to node "to" (through the external circuit from "to" back to
// "from").
func (c *Circuit) AddISource(from, to NodeID, fn SourceFn) {
	c.addElem(&isource{from, to, fn})
}

// AddClamp attaches a switchable conductance from the node toward a target
// voltage: i = g(t)*(v - vtarget). A zero conductance disables it. Used to
// steer bistable feedback loops onto a stable branch during operating-point
// analysis.
func (c *Circuit) AddClamp(node NodeID, vtarget float64, g SourceFn) {
	c.addElem(&clamp{node: node, vt: vtarget, g: g})
}

// AddMOSFET adds a FinFET with the given compact model between drain, gate,
// source, and bulk nodes.
func (c *Circuit) AddMOSFET(m *device.Model, d, g, s, b NodeID) {
	c.addElem(&mosfet{m, d, g, s, b})
}

// systemSize returns the MNA unknown count: node voltages plus source branch
// currents.
func (c *Circuit) systemSize() int { return len(c.names) + c.nvsrc }

func (c *Circuit) String() string {
	return fmt.Sprintf("spice.Circuit{T=%gK, nodes=%d, elems=%d, vsrc=%d}",
		c.Temp, len(c.names), len(c.elems), c.nvsrc)
}
