package netlist

import (
	"fmt"
	"math/bits"

	"repro/internal/pdk"
)

// Reserved net IDs of every compiled graph.
const (
	NetConst0 int32 = 0
	NetConst1 int32 = 1
)

// Node is one compiled gate instance.
type Node struct {
	Name  string    // instance name
	Cell  string    // library cell name
	Def   *pdk.Cell // PDK definition; In follows Def.Inputs
	Truth uint64    // output truth table over In (bit i of the row = In[i])
	In    []int32   // input net IDs
	Out   int32     // output net ID
	Level int32     // topological level (inputs and constants are level 0)
}

// Graph is a netlist compiled to dense net IDs: the one representation
// STA, power, and gate-level simulation run on. Nodes keep the netlist's
// gate order, so Gates[i] is Netlist.Gates[i].
type Graph struct {
	Name  string
	Nets  []string // net ID -> name; [0]=1'b0, [1]=1'b1
	Gates []Node   // topological order (drivers before loads)

	// Inputs / Outputs are net IDs of the primary ports, in port order.
	// Output aliases are pre-resolved, so Outputs may repeat IDs or point
	// at constants.
	Inputs      []int32
	InputNames  []string
	Outputs     []int32
	OutputNames []string

	// Fanouts[net] lists the gates reading the net, in gate order (once
	// per connected pin). Driver[net] is the driving gate, or -1 for
	// constants and primary inputs.
	Fanouts [][]int32
	Driver  []int32

	index map[string]int32
}

// Compile flattens a netlist into its dense graph. Every cell must be
// single-output and combinational with a truth table (≤ 6 inputs), every
// net read must be driven earlier in gate order, no net may be driven
// twice, and every output must resolve to a driven net.
func Compile(nl *Netlist) (*Graph, error) {
	// Every node's In and every net's Fanouts are capped sub-slices of one
	// backing array each, so a graph is a handful of allocations however
	// many gates it has, and an append to one row copies instead of
	// overwriting its neighbour.
	numNets := len(nl.Inputs) + len(nl.Gates) + 2
	numArcs := 0
	for i := range nl.Gates {
		numArcs += len(nl.Gates[i].Inputs)
	}
	arcs := make([]int32, numArcs)
	g := &Graph{
		Name:   nl.Name,
		Nets:   append(make([]string, 0, numNets), Const0, Const1),
		Driver: append(make([]int32, 0, numNets), -1, -1),
		index:  make(map[string]int32, numNets),
	}
	g.index[Const0] = NetConst0
	g.index[Const1] = NetConst1
	intern := func(name string, driver int32) int32 {
		id := int32(len(g.Nets))
		g.Nets = append(g.Nets, name)
		g.Driver = append(g.Driver, driver)
		g.index[name] = id
		return id
	}
	g.Inputs = make([]int32, 0, len(nl.Inputs))
	for _, in := range nl.Inputs {
		if _, dup := g.index[in]; dup {
			return nil, fmt.Errorf("netlist: duplicate input %q", in)
		}
		g.Inputs = append(g.Inputs, intern(in, -1))
	}
	g.InputNames = append([]string(nil), nl.Inputs...)
	g.Gates = make([]Node, len(nl.Gates))
	for gi, gate := range nl.Gates {
		def := nl.Cell(gate.Cell)
		if def == nil {
			return nil, fmt.Errorf("netlist: gate %s: unknown cell %q", gate.Name, gate.Cell)
		}
		if len(def.Outputs) != 1 {
			return nil, fmt.Errorf("netlist: gate %s: cell %s is not single-output", gate.Name, gate.Cell)
		}
		tt, ok := def.Truth(def.Outputs[0])
		if !ok {
			return nil, fmt.Errorf("netlist: gate %s: cell %s has no truth table (sequential or >6 inputs)", gate.Name, gate.Cell)
		}
		k := len(gate.Inputs)
		n := Node{Name: gate.Name, Cell: gate.Cell, Def: def, Truth: tt, In: arcs[:k:k]}
		arcs = arcs[k:]
		for i, net := range gate.Inputs {
			id, ok := g.index[net]
			if !ok {
				return nil, fmt.Errorf("netlist: gate %s: net %q used before driven", gate.Name, net)
			}
			n.In[i] = id
			if d := g.Driver[id]; d >= 0 {
				n.Level = max(n.Level, g.Gates[d].Level)
			}
		}
		n.Level++
		if _, dup := g.index[gate.Output]; dup {
			return nil, fmt.Errorf("netlist: gate %s: net %q driven twice", gate.Name, gate.Output)
		}
		n.Out = intern(gate.Output, int32(gi))
		g.Gates[gi] = n
	}
	g.Outputs = make([]int32, 0, len(nl.Outputs))
	for _, o := range nl.Outputs {
		drv := nl.Resolve(o)
		id, ok := g.index[drv]
		if !ok {
			return nil, fmt.Errorf("netlist: output %q resolves to undriven net %q", o, drv)
		}
		g.Outputs = append(g.Outputs, id)
	}
	g.OutputNames = append([]string(nil), nl.Outputs...)
	// Fanouts: count each net's readers, then fill the rows in gate order.
	off := make([]int32, numNets+1)
	for gi := range g.Gates {
		for _, in := range g.Gates[gi].In {
			off[in+1]++
		}
	}
	for net := 1; net <= numNets; net++ {
		off[net] += off[net-1]
	}
	fan := make([]int32, numArcs)
	g.Fanouts = make([][]int32, numNets)
	for net := range g.Fanouts {
		g.Fanouts[net] = fan[off[net]:off[net]:off[net+1]]
	}
	for gi := range g.Gates {
		for _, in := range g.Gates[gi].In {
			g.Fanouts[in] = append(g.Fanouts[in], int32(gi))
		}
	}
	return g, nil
}

// NumNets returns the net count (constants included).
func (g *Graph) NumNets() int { return len(g.Nets) }

// NetIndex returns the ID of a net name.
func (g *Graph) NetIndex(name string) (int32, bool) {
	id, ok := g.index[name]
	return id, ok
}

// Depth returns the maximum gate level.
func (g *Graph) Depth() int {
	var d int32
	for i := range g.Gates {
		d = max(d, g.Gates[i].Level)
	}
	return int(d)
}

// SimWords evaluates one 64-vector word plane: in[i] carries the stimulus
// bits of primary input i. The returned slice holds one word per net.
func (g *Graph) SimWords(in []uint64) ([]uint64, error) {
	return g.SimWordsInto(make([]uint64, len(g.Nets)), in)
}

// SimWordsInto is SimWords writing into dst, which must hold one word per
// net (NumNets); it returns dst. It does not allocate.
func (g *Graph) SimWordsInto(dst, in []uint64) ([]uint64, error) {
	if len(in) != len(g.Inputs) {
		return nil, fmt.Errorf("netlist: SimWords wants %d input words, got %d", len(g.Inputs), len(in))
	}
	vals := dst[:len(g.Nets)]
	vals[NetConst0] = 0
	vals[NetConst1] = ^uint64(0)
	for i, id := range g.Inputs {
		vals[id] = in[i]
	}
	for gi := range g.Gates {
		n := &g.Gates[gi]
		var out uint64
		// Shannon row selection, bit-parallel: for each ON-set row of the
		// truth table, AND together the matching input planes.
		for row := 0; row < 1<<uint(len(n.In)); row++ {
			if n.Truth&(1<<uint(row)) == 0 {
				continue
			}
			sel := ^uint64(0)
			for i, id := range n.In {
				if row&(1<<uint(i)) != 0 {
					sel &= vals[id]
				} else {
					sel &= ^vals[id]
				}
			}
			out |= sel
		}
		vals[n.Out] = out
	}
	return vals, nil
}

// AddToggles adds to toggles[net] the 0↔1 transitions between the first n
// consecutive vectors of the word plane vals, plus the transition from the
// last vector of the previous plane prev (nil for the first plane).
func AddToggles(toggles []int64, prev, vals []uint64, n int) {
	mask := ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
	}
	for net, w := range vals {
		flips := bits.OnesCount64((w ^ (w << 1)) &^ 1 & mask)
		if prev != nil && (prev[net]>>63)&1 != w&1 {
			flips++
		}
		toggles[net] += int64(flips)
	}
}
