// Package liberty implements the industry-standard "liberty" (.lib) cell
// library format: the data model, an NLDM table-lookup engine with bilinear
// interpolation, a writer, and a parser. The characterized cryogenic-aware
// libraries produced by internal/charlib are emitted in this format so that
// — exactly as the paper stresses — they stay compatible with standard EDA
// tool flows.
package liberty

import (
	"fmt"
	"sort"
)

// Library is one characterized cell library at a single operating corner.
type Library struct {
	Name  string
	TempK float64 // characterization temperature (K)
	Vdd   float64 // supply voltage (V)
	Cells []*Cell
}

// Cell is one library cell.
type Cell struct {
	Name         string
	Area         float64
	LeakagePower float64 // average state leakage in watts
	Pins         []*Pin
	Sequential   bool
	ClockPin     string
}

// Pin is a cell port with its timing and power data.
type Pin struct {
	Name      string
	Direction string  // "input" or "output"
	Cap       float64 // input capacitance in farads (inputs only)
	Function  string  // boolean function (outputs only), liberty syntax
	Timings   []*Timing
	Powers    []*InternalPower
}

// TimingSense values follow liberty semantics.
const (
	SensePositive = "positive_unate"
	SenseNegative = "negative_unate"
	SenseNonUnate = "non_unate"
)

// Timing is one timing arc from RelatedPin to the owning output pin.
type Timing struct {
	RelatedPin string
	Sense      string
	Type       string // "" (combinational) or "rising_edge" / "falling_edge"
	CellRise   *Table // delay to output rise (s)
	CellFall   *Table // delay to output fall (s)
	RiseTrans  *Table // output rise transition (s)
	FallTrans  *Table // output fall transition (s)
}

// Delay returns the arc's worst-case delay at (slew, load): the larger of
// its CellRise and CellFall lookups, rise on a tie.
func (t *Timing) Delay(slew, load float64) float64 {
	d := t.CellRise.Lookup(slew, load)
	if f := t.CellFall.Lookup(slew, load); f > d {
		d = f
	}
	return d
}

// InternalPower is the per-arc internal energy table (J per switching
// event), indexed like the delay tables.
type InternalPower struct {
	RelatedPin string
	RisePower  *Table // energy for output-rise events (J)
	FallPower  *Table // energy for output-fall events (J)
}

// Table is a 2-D NLDM lookup table: Index1 = input transition (s),
// Index2 = output load (F), Values[i][j] in SI units.
type Table struct {
	Index1 []float64
	Index2 []float64
	Values [][]float64
}

// NewTable allocates a table with the given axes.
func NewTable(index1, index2 []float64) *Table {
	v := make([][]float64, len(index1))
	for i := range v {
		v[i] = make([]float64, len(index2))
	}
	return &Table{
		Index1: append([]float64(nil), index1...),
		Index2: append([]float64(nil), index2...),
		Values: v,
	}
}

// locate finds the interpolation cell for x on a sorted axis, returning the
// lower index and the (possibly extrapolating) fraction.
func locate(axis []float64, x float64) (int, float64) {
	n := len(axis)
	if n == 1 {
		return 0, 0
	}
	i := sort.SearchFloat64s(axis, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	lo, hi := axis[i-1], axis[i]
	if hi == lo {
		return i - 1, 0
	}
	return i - 1, (x - lo) / (hi - lo)
}

// Lookup evaluates the table at (slew, load) with bilinear interpolation and
// linear extrapolation outside the characterized grid.
func (t *Table) Lookup(slew, load float64) float64 {
	i, fi := locate(t.Index1, slew)
	j, fj := locate(t.Index2, load)
	if len(t.Index1) == 1 && len(t.Index2) == 1 {
		return t.Values[0][0]
	}
	if len(t.Index1) == 1 {
		return t.Values[0][j]*(1-fj) + t.Values[0][j+1]*fj
	}
	if len(t.Index2) == 1 {
		return t.Values[i][0]*(1-fi) + t.Values[i+1][0]*fi
	}
	v00 := t.Values[i][j]
	v01 := t.Values[i][j+1]
	v10 := t.Values[i+1][j]
	v11 := t.Values[i+1][j+1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// FindCell returns the named cell or nil.
func (l *Library) FindCell(name string) *Cell {
	for _, c := range l.Cells {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FindPin returns the named pin or nil.
func (c *Cell) FindPin(name string) *Pin {
	for _, p := range c.Pins {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Inputs returns the cell's input pins in declaration order.
func (c *Cell) Inputs() []*Pin {
	var out []*Pin
	for _, p := range c.Pins {
		if p.Direction == "input" {
			out = append(out, p)
		}
	}
	return out
}

// Outputs returns the cell's output pins in declaration order.
func (c *Cell) Outputs() []*Pin {
	var out []*Pin
	for _, p := range c.Pins {
		if p.Direction == "output" {
			out = append(out, p)
		}
	}
	return out
}

// Timing returns the timing arc on output pin "out" related to input "in",
// or nil.
func (c *Cell) Timing(out, in string) *Timing {
	p := c.FindPin(out)
	if p == nil {
		return nil
	}
	for _, tm := range p.Timings {
		if tm.RelatedPin == in {
			return tm
		}
	}
	return nil
}

// Power returns the internal-power group on output "out" related to "in".
func (c *Cell) Power(out, in string) *InternalPower {
	p := c.FindPin(out)
	if p == nil {
		return nil
	}
	for _, pw := range p.Powers {
		if pw.RelatedPin == in {
			return pw
		}
	}
	return nil
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil.
func (l *Library) Validate() error {
	if len(l.Cells) == 0 {
		return fmt.Errorf("liberty: library %s has no cells", l.Name)
	}
	for _, c := range l.Cells {
		outs := c.Outputs()
		if len(outs) == 0 {
			return fmt.Errorf("liberty: cell %s has no outputs", c.Name)
		}
		for _, o := range outs {
			for _, tm := range o.Timings {
				if c.FindPin(tm.RelatedPin) == nil {
					return fmt.Errorf("liberty: cell %s: arc from unknown pin %s", c.Name, tm.RelatedPin)
				}
				for _, tb := range []*Table{tm.CellRise, tm.CellFall, tm.RiseTrans, tm.FallTrans} {
					if tb == nil {
						continue
					}
					for _, row := range tb.Values {
						for _, v := range row {
							if v < 0 {
								return fmt.Errorf("liberty: cell %s: negative table entry %g", c.Name, v)
							}
						}
					}
				}
			}
		}
	}
	return nil
}
