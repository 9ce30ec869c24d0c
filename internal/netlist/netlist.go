// Package netlist represents technology-mapped gate-level netlists: the
// output of the technology mapper and the input to the STA, power, and
// gate-level simulation engines, all of which run on the dense compiled
// Graph (Compile). The graph's word-parallel evaluator verifies mapping
// correctness against the source AIG and extracts switching activity. The
// package also reads and writes structural Verilog.
package netlist

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pdk"
)

// Constant net names: Verilog scalar literals are accepted anywhere a net
// can appear (gate input pins, assign right-hand sides). Simulation and the
// structural checks treat them as always-driven constant drivers.
const (
	Const0 = "1'b0"
	Const1 = "1'b1"
)

// Gate is one cell instance. Pins are ordered exactly as the PDK cell's
// Inputs list; Output receives the single output pin.
type Gate struct {
	Name   string // instance name
	Cell   string // library cell name
	Inputs []string
	Output string
}

// Netlist is a combinational mapped circuit.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []Gate // topologically ordered (drivers before loads)
	// Aliases maps primary-output names onto the internal nets driving
	// them (emitted as Verilog assigns).
	Aliases map[string]string

	cellIndex map[string]*pdk.Cell
	// cellArea caches each catalog cell's area: pdk.Cell.Area rebuilds
	// every stage's dual network on each call.
	cellArea map[string]float64
}

// New creates an empty netlist bound to a PDK cell catalog for function
// lookup.
func New(name string, cells []*pdk.Cell) *Netlist {
	idx := make(map[string]*pdk.Cell, len(cells))
	area := make(map[string]float64, len(cells))
	for _, c := range cells {
		idx[c.Name] = c
		area[c.Name] = c.Area()
	}
	return &Netlist{Name: name, Aliases: make(map[string]string), cellIndex: idx, cellArea: area}
}

// Cell returns the PDK definition of a cell name, or nil.
func (n *Netlist) Cell(name string) *pdk.Cell { return n.cellIndex[name] }

// AddGate appends a gate instance (drivers must be appended before loads).
func (n *Netlist) AddGate(cell string, inputs []string, output string) error {
	def := n.cellIndex[cell]
	if def == nil {
		return fmt.Errorf("netlist: unknown cell %s", cell)
	}
	if len(inputs) != len(def.Inputs) {
		return fmt.Errorf("netlist: cell %s expects %d inputs, got %d", cell, len(def.Inputs), len(inputs))
	}
	n.Gates = append(n.Gates, Gate{
		Name:   "g" + strconv.Itoa(len(n.Gates)),
		Cell:   cell,
		Inputs: append([]string(nil), inputs...),
		Output: output,
	})
	return nil
}

// NumGates returns the instance count.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Area sums the cell areas.
func (n *Netlist) Area() float64 {
	var a float64
	for _, g := range n.Gates {
		a += n.cellArea[g.Cell]
	}
	return a
}

// Resolve returns the driving net for a name, following output aliases.
func (n *Netlist) Resolve(name string) string {
	if d, ok := n.Aliases[name]; ok {
		return d
	}
	return name
}

// WriteVerilog emits the netlist as structural Verilog. Net names are
// written with '.', '[' and ']' replaced by '_'; it fails rather than
// merge two distinct nets that would write as the same identifier.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	ids := make(map[string]string) // identifier -> the net it names
	var clash error
	id := func(net string) string {
		s := sanitizer.Replace(net)
		if prev, ok := ids[s]; !ok {
			ids[s] = net
		} else if prev != net && clash == nil {
			clash = fmt.Errorf("netlist: nets %q and %q both write as %q", prev, net, s)
		}
		return s
	}
	idList := func(nets []string) string {
		out := make([]string, len(nets))
		for i, net := range nets {
			out[i] = id(net)
		}
		return strings.Join(out, ", ")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// mapped netlist %s: %d gates\n", n.Name, len(n.Gates))
	fmt.Fprintf(&b, "module %s (%s, %s);\n", sanitizer.Replace(n.Name), idList(n.Inputs), idList(n.Outputs))
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "  input %s;\n", id(in))
	}
	for _, out := range n.Outputs {
		fmt.Fprintf(&b, "  output %s;\n", id(out))
	}
	// Internal wires.
	declared := make(map[string]bool)
	for _, in := range n.Inputs {
		declared[id(in)] = true
	}
	for _, out := range n.Outputs {
		declared[id(out)] = true
	}
	var wires []string
	for _, g := range n.Gates {
		if s := id(g.Output); !declared[s] {
			declared[s] = true
			wires = append(wires, s)
		}
	}
	sort.Strings(wires)
	for _, wn := range wires {
		fmt.Fprintf(&b, "  wire %s;\n", wn)
	}
	for _, g := range n.Gates {
		def := n.cellIndex[g.Cell]
		var pins []string
		for i, in := range g.Inputs {
			pins = append(pins, fmt.Sprintf(".%s(%s)", def.Inputs[i], id(in)))
		}
		pins = append(pins, fmt.Sprintf(".%s(%s)", def.Outputs[0], id(g.Output)))
		fmt.Fprintf(&b, "  %s %s (%s);\n", g.Cell, g.Name, strings.Join(pins, ", "))
	}
	var aliased []string
	for out := range n.Aliases {
		aliased = append(aliased, out)
	}
	sort.Strings(aliased)
	for _, out := range aliased {
		fmt.Fprintf(&b, "  assign %s = %s;\n", id(out), id(n.Aliases[out]))
	}
	fmt.Fprintf(&b, "endmodule\n")
	if clash != nil {
		return clash
	}
	_, err := io.WriteString(w, b.String())
	return err
}

var sanitizer = strings.NewReplacer(".", "_", "[", "_", "]", "_")
