package charlib

import (
	"context"
	"math"
	"testing"

	"repro/internal/liberty"
)

// TestCoastingMatchesFixedGrid pins settle-and-coast combinational
// transients against the fixed-grid oracle: every delay and transition
// table is bit-identical (each measured crossing lies before coasting
// starts), leakage is untouched, and every internal-energy entry agrees
// within 0.5% + 1e-20 J.
func TestCoastingMatchesFixedGrid(t *testing.T) {
	for _, temp := range []float64{300, 10} {
		for _, name := range []string{"INVx1", "NAND2x1", "XOR2x1", "AOI22x1"} {
			cell := cellByName(t, name)
			char := func(fixedGrid bool) *liberty.Cell {
				ch := &charer{cfg: QuickConfig(temp), fixedGrid: fixedGrid}
				lc, err := ch.cell(context.Background(), cell)
				if err != nil {
					t.Fatalf("%s at %gK (fixed grid %v): %v", name, temp, fixedGrid, err)
				}
				return lc
			}
			fixed, coast := char(true), char(false)
			if coast.LeakagePower != fixed.LeakagePower {
				t.Errorf("%s at %gK: leakage %g, fixed grid %g", name, temp, coast.LeakagePower, fixed.LeakagePower)
			}
			for _, pin := range fixed.Outputs() {
				cp := coast.FindPin(pin.Name)
				for k, tm := range pin.Timings {
					ctm := cp.Timings[k]
					for tab, pair := range map[string][2]*liberty.Table{
						"cell_rise": {tm.CellRise, ctm.CellRise}, "cell_fall": {tm.CellFall, ctm.CellFall},
						"rise_transition": {tm.RiseTrans, ctm.RiseTrans}, "fall_transition": {tm.FallTrans, ctm.FallTrans},
					} {
						eachEntry(pair, func(i, j int, want, got float64) {
							if got != want {
								t.Errorf("%s at %gK %s/%s %s[%d][%d] = %g, fixed grid %g", name, temp, pin.Name, tm.RelatedPin, tab, i, j, got, want)
							}
						})
					}
				}
				for k, pw := range pin.Powers {
					cpw := cp.Powers[k]
					for tab, pair := range map[string][2]*liberty.Table{
						"rise_power": {pw.RisePower, cpw.RisePower}, "fall_power": {pw.FallPower, cpw.FallPower},
					} {
						eachEntry(pair, func(i, j int, want, got float64) {
							if math.Abs(got-want) > 5e-3*math.Abs(want)+1e-20 {
								t.Errorf("%s at %gK %s/%s %s[%d][%d] = %g J, fixed grid %g J", name, temp, pin.Name, pw.RelatedPin, tab, i, j, got, want)
							}
						})
					}
				}
			}
		}
	}
}

// eachEntry calls f on every entry of a pair of same-shape tables.
func eachEntry(pair [2]*liberty.Table, f func(i, j int, want, got float64)) {
	for i, row := range pair[0].Values {
		for j, want := range row {
			f(i, j, want, pair[1].Values[i][j])
		}
	}
}
