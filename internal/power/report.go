package power

import (
	"fmt"
	"io"
	"sort"
)

// CellPower attributes power to one gate instance.
type CellPower struct {
	Gate     string
	Cell     string
	Leakage  float64
	Internal float64
	// Switching charged to the gate's output net.
	Switching float64
}

// Total returns the instance's combined power.
func (c *CellPower) Total() float64 { return c.Leakage + c.Internal + c.Switching }

// ClassPower aggregates instance power by library cell (the "cell class"
// view: all NAND2x1 instances as one row). The compact form the QoR
// baseline persists for cross-run power attribution.
type ClassPower struct {
	Cell      string
	Count     int
	Leakage   float64
	Internal  float64
	Switching float64
}

// Total returns the class's combined power.
func (c *ClassPower) Total() float64 { return c.Leakage + c.Internal + c.Switching }

// GroupByCell folds per-instance attributions into per-cell-class rows,
// sorted by cell name. Accumulation follows the instance (gate) order, so
// the grouped sums are as deterministic as the input.
func GroupByCell(cells []CellPower) []ClassPower {
	idx := make(map[string]int)
	var out []ClassPower
	for i := range cells {
		cp := &cells[i]
		j, ok := idx[cp.Cell]
		if !ok {
			j = len(out)
			idx[cp.Cell] = j
			out = append(out, ClassPower{Cell: cp.Cell})
		}
		out[j].Count++
		out[j].Leakage += cp.Leakage
		out[j].Internal += cp.Internal
		out[j].Switching += cp.Switching
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// WriteTopConsumers prints the n highest-power instances as a signoff-style
// table.
func WriteTopConsumers(w io.Writer, cells []CellPower, n int) error {
	sorted := append([]CellPower(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total() > sorted[j].Total() })
	if n > len(sorted) {
		n = len(sorted)
	}
	if _, err := fmt.Fprintf(w, "%-8s %-12s %12s %12s %12s %12s\n",
		"inst", "cell", "leak(W)", "internal(W)", "switch(W)", "total(W)"); err != nil {
		return err
	}
	for _, c := range sorted[:n] {
		if _, err := fmt.Fprintf(w, "%-8s %-12s %12.4g %12.4g %12.4g %12.4g\n",
			c.Gate, c.Cell, c.Leakage, c.Internal, c.Switching, c.Total()); err != nil {
			return err
		}
	}
	return nil
}
