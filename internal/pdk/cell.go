package pdk

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/spice"
)

// Stage is one CMOS stage inside a cell: either a static complementary gate
// (Out = NOT(F), pull-up = dual of F) or an inverting tristate (clocked
// inverter) driving Out from In when EnN is high / EnP is low.
type Stage struct {
	Out string
	F   *Expr
	Tri *Tri
}

// Tri describes an inverting tristate stage.
type Tri struct {
	In  string // data input (inverted onto Out when enabled)
	EnN string // gate of the NMOS enable device (active high)
	EnP string // gate of the PMOS enable device (active low)
}

// Cell is one standard cell: pins, internal stage network, and metadata.
type Cell struct {
	Name    string // e.g. "NAND2x2"
	Base    string // e.g. "NAND2"
	Drive   int    // drive-strength multiplier
	Inputs  []string
	Outputs []string
	Stages  []Stage

	Seq    bool   // sequential cell (has a clock)
	Clock  string // clock pin name for sequential cells
	Edge   bool   // true: positive-edge flop; false: negedge or level latch
	IsFlop bool   // true for edge-triggered flops, false for latches

	// truth[out] is the truth table of the named output over Inputs (bit i
	// of the index is Inputs[i]); valid for combinational cells with at most
	// 6 inputs.
	truth map[string]uint64
}

// finSizing returns the per-stage fin counts. The pull-up uses twice the
// fins of the pull-down to balance the slower hole transport, and series
// stacks are upsized by their depth as in commercial libraries.
func finSizing(drive, depthN, depthP int) (nN, nP int) {
	if depthN < 1 {
		depthN = 1
	}
	if depthP < 1 {
		depthP = 1
	}
	return drive * depthN, 2 * drive * depthP
}

// Build instantiates the cell's transistors into the circuit. pins maps
// every external pin name to a node; vdd is the supply rail. Internal nets
// get names prefixed with prefix to keep instances distinct.
func (cl *Cell) Build(c *spice.Circuit, prefix string, pins map[string]spice.NodeID, vdd spice.NodeID) error {
	for _, p := range cl.Pins() {
		if _, ok := pins[p]; !ok {
			return fmt.Errorf("pdk: cell %s: pin %s not connected", cl.Name, p)
		}
	}
	node := func(name string) spice.NodeID {
		if n, ok := pins[name]; ok {
			return n
		}
		return c.Node(prefix + "." + name)
	}
	fresh := 0
	mkNet := func() spice.NodeID {
		fresh++
		return c.Node(fmt.Sprintf("%s.__t%d", prefix, fresh))
	}
	// Devices are named "<prefix>.<stage>.<pol><k>(<gate>)" so SPICE
	// nonconvergence forensics can point at a specific transistor.
	ndev := 0
	name := func(stage string, pol byte, gate string) {
		ndev++
		c.NameLast(fmt.Sprintf("%s.%s.%c%d(%s)", prefix, stage, pol, ndev, gate))
	}
	for _, st := range cl.Stages {
		out := node(st.Out)
		if st.Tri != nil {
			// Inverting tristate: vdd -P(in)- x -P(enP)- out ; out -N(enN)- y -N(in)- gnd.
			nN, nP := finSizing(cl.Drive, 2, 2)
			x := mkNet()
			y := mkNet()
			c.AddMOSFET(device.NewP(nP), x, node(st.Tri.In), vdd, vdd)
			name(st.Out, 'P', st.Tri.In)
			c.AddMOSFET(device.NewP(nP), out, node(st.Tri.EnP), x, vdd)
			name(st.Out, 'P', st.Tri.EnP)
			c.AddMOSFET(device.NewN(nN), out, node(st.Tri.EnN), y, spice.Ground)
			name(st.Out, 'N', st.Tri.EnN)
			c.AddMOSFET(device.NewN(nN), y, node(st.Tri.In), spice.Ground, spice.Ground)
			name(st.Out, 'N', st.Tri.In)
			continue
		}
		pdn := st.F
		pun := st.F.Dual()
		nN, nP := finSizing(cl.Drive, pdn.SeriesDepth(), pun.SeriesDepth())
		buildNetwork(c, pdn, out, spice.Ground, func(gate string, a, b spice.NodeID) {
			c.AddMOSFET(device.NewN(nN), a, node(gate), b, spice.Ground)
			name(st.Out, 'N', gate)
		}, mkNet)
		buildNetwork(c, pun, vdd, out, func(gate string, a, b spice.NodeID) {
			c.AddMOSFET(device.NewP(nP), b, node(gate), a, vdd)
			name(st.Out, 'P', gate)
		}, mkNet)
	}
	return nil
}

// buildNetwork recursively expands the expression into a series/parallel
// transistor network between top and bottom. mkDev receives (gate,
// topSide, bottomSide) for each device; mkNet allocates internal nodes.
func buildNetwork(c *spice.Circuit, e *Expr, top, bottom spice.NodeID, mkDev func(gate string, a, b spice.NodeID), mkNet func() spice.NodeID) {
	switch e.Op {
	case OpLit:
		mkDev(e.Name, top, bottom)
	case OpAnd:
		cur := top
		for i, k := range e.Kids {
			next := bottom
			if i < len(e.Kids)-1 {
				next = mkNet()
			}
			buildNetwork(c, k, cur, next, mkDev, mkNet)
			cur = next
		}
	case OpOr:
		for _, k := range e.Kids {
			buildNetwork(c, k, top, bottom, mkDev, mkNet)
		}
	}
}

// Pins returns all external pins: inputs (including clock/reset pins listed
// in Inputs) followed by outputs.
func (cl *Cell) Pins() []string {
	return append(append([]string{}, cl.Inputs...), cl.Outputs...)
}

// computeTruth evaluates the combinational stage network for every input
// combination, filling cl.truth. It must not be called for sequential cells.
func (cl *Cell) computeTruth() {
	if cl.Seq || len(cl.Inputs) > 6 {
		return
	}
	cl.truth = make(map[string]uint64, len(cl.Outputs))
	n := len(cl.Inputs)
	for idx := 0; idx < 1<<uint(n); idx++ {
		val := make(map[string]bool, n+len(cl.Stages))
		for i, in := range cl.Inputs {
			val[in] = idx&(1<<uint(i)) != 0
		}
		for _, st := range cl.Stages {
			if st.Tri != nil {
				panic("pdk: tristate stage in combinational cell " + cl.Name)
			}
			val[st.Out] = !st.F.Eval(val)
		}
		for _, out := range cl.Outputs {
			if val[out] {
				cl.truth[out] |= 1 << uint(idx)
			}
		}
	}
}

// Truth returns the truth table of the named output over the cell's inputs
// (bit i of the row index corresponds to Inputs[i]). ok is false for
// sequential cells or cells with more than 6 inputs.
func (cl *Cell) Truth(output string) (uint64, bool) {
	if cl.truth == nil {
		return 0, false
	}
	tt, ok := cl.truth[output]
	return tt, ok
}

// InputCap returns the total gate capacitance presented by the named input
// pin at the given temperature, by summing the gate capacitance of every
// device the pin drives.
func (cl *Cell) InputCap(pin string, tempK float64) float64 {
	var total float64
	for _, st := range cl.Stages {
		if st.Tri != nil {
			nN, nP := finSizing(cl.Drive, 2, 2)
			if st.Tri.In == pin {
				total += gateCapOf(device.NFET, nN, tempK) + gateCapOf(device.PFET, nP, tempK)
			}
			if st.Tri.EnN == pin {
				total += gateCapOf(device.NFET, nN, tempK)
			}
			if st.Tri.EnP == pin {
				total += gateCapOf(device.PFET, nP, tempK)
			}
			continue
		}
		nN, nP := finSizing(cl.Drive, st.F.SeriesDepth(), st.F.Dual().SeriesDepth())
		for _, lit := range st.F.Literals(nil) {
			if lit == pin {
				total += gateCapOf(device.NFET, nN, tempK) + gateCapOf(device.PFET, nP, tempK)
			}
		}
	}
	return total
}

func gateCapOf(typ device.Type, nfin int, tempK float64) float64 {
	var m *device.Model
	if typ == device.PFET {
		m = device.NewP(nfin)
	} else {
		m = device.NewN(nfin)
	}
	return m.GateCap(tempK)
}

// TransistorCount returns the number of devices in the cell.
func (cl *Cell) TransistorCount() int {
	n := 0
	for _, st := range cl.Stages {
		if st.Tri != nil {
			n += 4
			continue
		}
		n += st.F.CountDevices() + st.F.Dual().CountDevices()
	}
	return n
}

// Area returns a layout-proxy area figure for the cell in arbitrary
// consistent units (fin count weighted by stack sizing), used by
// area-driven cost functions.
func (cl *Cell) Area() float64 {
	var a float64
	for _, st := range cl.Stages {
		if st.Tri != nil {
			nN, nP := finSizing(cl.Drive, 2, 2)
			a += float64(2 * (nN + nP))
			continue
		}
		nN, nP := finSizing(cl.Drive, st.F.SeriesDepth(), st.F.Dual().SeriesDepth())
		a += float64(st.F.CountDevices()*nN + st.F.Dual().CountDevices()*nP)
	}
	return a
}
