// Cell-characterization example: run the paper's Section III flow on a
// handful of standard cells — SPICE-characterize them at 300 K and 10 K on
// a slew/load grid and print the liberty view plus the room-vs-cryo
// comparison (delay nearly unchanged, switching energy slightly lower,
// leakage collapsing).
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/charlib"
	"repro/internal/liberty"
	"repro/internal/pdk"
)

func main() {
	ctx := context.Background()
	catalog := pdk.Catalog()
	names := []string{"INVx1", "NAND2x1", "XOR2x1", "AOI21x1", "DFFx1"}

	fmt.Println("Characterizing", names, "at 300 K and 10 K (3x3 quick grid)...")
	fmt.Println()
	fmt.Printf("%-10s | %-23s | %-23s | %-25s\n", "cell",
		"delay ps (300K / 10K)", "energy fJ (300K / 10K)", "leakage W (300K / 10K)")
	for _, name := range names {
		cell := pdk.FindCell(catalog, name)
		if cell == nil {
			fmt.Fprintln(os.Stderr, "unknown cell", name)
			os.Exit(1)
		}
		room, err := charlib.CharacterizeCell(ctx, cell, charlib.QuickConfig(300))
		exitOn(err)
		cryo, err := charlib.CharacterizeCell(ctx, cell, charlib.QuickConfig(10))
		exitOn(err)

		dR, eR := midMetrics(room)
		dC, eC := midMetrics(cryo)
		fmt.Printf("%-10s | %8.2f / %-12.2f | %8.3f / %-12.3f | %10.3g / %-12.3g\n",
			name, dR*1e12, dC*1e12, eR*1e15, eC*1e15, room.LeakagePower, cryo.LeakagePower)
	}

	// Emit one cell as a liberty snippet.
	inv := pdk.FindCell(catalog, "INVx1")
	lc, err := charlib.CharacterizeCell(ctx, inv, charlib.QuickConfig(10))
	exitOn(err)
	fmt.Println("\nLiberty view of INVx1 at 10 K (industry-standard format):")
	lib := &liberty.Library{Name: "cryo10k_demo", TempK: 10, Vdd: 0.7, Cells: []*liberty.Cell{lc}}
	exitOn(lib.Write(os.Stdout))
}

// midMetrics extracts the mid-grid worst arc delay and average per-event
// internal energy of a characterized cell.
func midMetrics(c *liberty.Cell) (delay, energy float64) {
	arcs := 0
	for _, p := range c.Outputs() {
		for _, tm := range p.Timings {
			s := tm.CellRise.Index1[len(tm.CellRise.Index1)/2]
			l := tm.CellRise.Index2[len(tm.CellRise.Index2)/2]
			d := tm.Delay(s, l)
			if d > delay {
				delay = d
			}
		}
		for _, pw := range p.Powers {
			s := pw.RisePower.Index1[len(pw.RisePower.Index1)/2]
			l := pw.RisePower.Index2[len(pw.RisePower.Index2)/2]
			energy += 0.5 * (pw.RisePower.Lookup(s, l) + pw.FallPower.Lookup(s, l))
			arcs++
		}
	}
	if arcs > 0 {
		energy /= float64(arcs)
	}
	return delay, energy
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
