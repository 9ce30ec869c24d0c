// Command cryochar characterizes the 200-cell standard-cell library with
// the SPICE engine at a chosen temperature and writes the liberty file —
// the paper's Section III flow. With -compare it characterizes both 300 K
// and 10 K and prints the Fig. 2(a,b) distribution summaries.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/charlib"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/pdk"
)

const lineBreak = "\n"

var flushObs = func() {}

func main() {
	temp := flag.Float64("temp", 10, "characterization temperature (K)")
	out := flag.String("o", "", "output liberty path (default build/cryolib_<T>K.lib)")
	cacheDir := flag.String("cache", "build", "cache directory")
	limit := flag.Int("limit", 0, "characterize only the first N cells (0 = all)")
	compare := flag.Bool("compare", false, "characterize 300K and 10K and print Fig 2(a,b) distributions")
	constraints := flag.Bool("constraints", false, "also measure setup/hold for edge-triggered flops (bisection; slower)")
	workers := flag.Int("workers", 0, "bounded worker pool size for characterization (0 = GOMAXPROCS)")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryochar:", err)
		os.Exit(1)
	}
	flushObs = flush
	defer flush()
	ctx, root := obs.Start(context.Background(), "cryochar")
	defer root.End()

	cells := pdk.Catalog()
	if *limit > 0 && *limit < len(cells) {
		cells = cells[:*limit]
	}
	fmt.Printf("library: %d cells\n", len(cells))

	if *compare {
		lib300 := characterize(ctx, cells, 300, *cacheDir, "", *workers)
		lib10 := characterize(ctx, cells, 10, *cacheDir, "", *workers)
		printDistributions(lib300, lib10)
		return
	}
	lib := characterize(ctx, cells, *temp, *cacheDir, *out, *workers)
	if *constraints {
		measureConstraints(lib, cells, *temp)
	}
}

// measureConstraints runs setup/hold extraction on every flop and prints
// the results (the cached liberty stays as characterized; use the library
// API to attach constraints programmatically).
func measureConstraints(lib *liberty.Library, cells []*pdk.Cell, temp float64) {
	cfg := charlib.DefaultConfig(temp)
	fmt.Println()
	fmt.Println("flop constraints (mid slew/load, 50% references):")
	for _, cell := range cells {
		if !cell.Seq || !cell.IsFlop {
			continue
		}
		setup, hold, err := charlib.MeasureSetupHold(cell, cfg)
		if err != nil {
			fmt.Printf("  %-10s FAILED: %v"+lineBreak, cell.Name, err)
			continue
		}
		fmt.Printf("  %-10s setup %6.2f ps  hold %6.2f ps"+lineBreak, cell.Name, setup*1e12, hold*1e12)
		if lc := lib.FindCell(cell.Name); lc != nil {
			if err := charlib.AttachConstraints(lc, cell, cfg); err != nil {
				fmt.Printf("  %-10s attach failed: %v"+lineBreak, cell.Name, err)
			}
		}
	}
}

func characterize(ctx context.Context, cells []*pdk.Cell, temp float64, cacheDir, out string, workers int) *liberty.Library {
	cfg := charlib.DefaultConfig(temp)
	cfg.Workers = workers
	path := out
	if path == "" {
		path = charlib.DefaultCachePath(cacheDir, temp, len(cells))
	}
	fmt.Printf("characterizing %d cells at %g K (7x7 grid) -> %s\n", len(cells), temp, path)
	lib, err := charlib.CharacterizeLibraryCached(ctx, path, fmt.Sprintf("cryo%gk", temp), cells, cfg,
		func(done, total int) {
			if done%20 == 0 || done == total {
				fmt.Printf("  %d/%d cells\n", done, total)
			}
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryochar:", err)
		flushObs()
		os.Exit(1)
	}
	if err := lib.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cryochar: validation:", err)
		flushObs()
		os.Exit(1)
	}
	fmt.Printf("done: %d cells at %g K\n", len(lib.Cells), temp)
	return lib
}

// printDistributions renders Fig 2(a) and Fig 2(b): library-wide delay and
// switching-energy distributions at both temperatures.
func printDistributions(lib300, lib10 *liberty.Library) {
	d300, e300 := libraryMetrics(lib300)
	d10, e10 := libraryMetrics(lib10)
	fmt.Println("\nFig 2(a) — propagation delay distribution across the library (ps):")
	printHistogramPair(d300, d10, 1e12, "ps")
	fmt.Println("\nFig 2(b) — switching energy distribution across the library (fJ):")
	printHistogramPair(e300, e10, 1e15, "fJ")
	fmt.Printf("\nmedians: delay %.2f ps @300K vs %.2f ps @10K | energy %.3f fJ @300K vs %.3f fJ @10K\n",
		median(d300)*1e12, median(d10)*1e12, median(e300)*1e15, median(e10)*1e15)
}

// libraryMetrics extracts per-cell mid-grid worst delay and average
// switching energy.
func libraryMetrics(lib *liberty.Library) (delays, energies []float64) {
	for _, c := range lib.Cells {
		var worstD, sumE float64
		var arcs int
		for _, p := range c.Outputs() {
			for _, tm := range p.Timings {
				s := tm.CellRise.Index1[len(tm.CellRise.Index1)/2]
				l := tm.CellRise.Index2[len(tm.CellRise.Index2)/2]
				d := tm.Delay(s, l)
				if d > worstD {
					worstD = d
				}
			}
			for _, pw := range p.Powers {
				s := pw.RisePower.Index1[len(pw.RisePower.Index1)/2]
				l := pw.RisePower.Index2[len(pw.RisePower.Index2)/2]
				sumE += 0.5 * (pw.RisePower.Lookup(s, l) + pw.FallPower.Lookup(s, l))
				arcs++
			}
		}
		if worstD > 0 {
			delays = append(delays, worstD)
		}
		if arcs > 0 {
			energies = append(energies, sumE/float64(arcs))
		}
	}
	return delays, energies
}

func printHistogramPair(a, b []float64, scale float64, unit string) {
	lo, hi := minMax(append(append([]float64{}, a...), b...))
	const bins = 12
	ha := histogram(a, lo, hi, bins)
	hb := histogram(b, lo, hi, bins)
	for i := 0; i < bins; i++ {
		left := lo + (hi-lo)*float64(i)/bins
		right := lo + (hi-lo)*float64(i+1)/bins
		fmt.Printf("  %7.2f-%-7.2f %s  300K %-30s 10K %s\n",
			left*scale, right*scale, unit, bar(ha[i]), bar(hb[i]))
	}
}

func histogram(v []float64, lo, hi float64, bins int) []int {
	h := make([]int, bins)
	for _, x := range v {
		i := int(float64(bins) * (x - lo) / (hi - lo))
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		h[i]++
	}
	return h
}

func bar(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 1
	}
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
