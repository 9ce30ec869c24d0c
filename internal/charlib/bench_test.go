package charlib

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pdk"
)

// BenchmarkCharacterizeCell times the QuickConfig characterization of one
// combinational and one sequential cell at 300 K and 10 K on one worker,
// and reports seconds per characterized cell (s/cell): the per-layer view
// of the char2corner workload. It also reports the Newton work of one
// characterization, counted in an untimed run with metrics on: solves per
// cell and iterations per solve.
func BenchmarkCharacterizeCell(b *testing.B) {
	for _, name := range []string{"AOI22x1", "DFFx1"} {
		cell := pdk.FindCell(catalog, name)
		if cell == nil {
			b.Fatalf("cell %s not in catalog", name)
		}
		for _, temp := range []float64{300, 10} {
			b.Run(fmt.Sprintf("%s/%gK", name, temp), func(b *testing.B) {
				cfg := QuickConfig(temp)
				cfg.Workers = 1
				for i := 0; i < b.N; i++ {
					if _, err := CharacterizeCell(context.Background(), cell, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/cell")
				b.StopTimer()
				solves, iters := newtonWork(b, cell, cfg)
				b.ReportMetric(float64(solves), "solves/cell")
				b.ReportMetric(float64(iters)/float64(solves), "iters/solve")
			})
		}
	}
}

// newtonWork characterizes cell once with metrics on and returns the Newton
// solves and iterations it took.
func newtonWork(b *testing.B, cell *pdk.Cell, cfg Config) (solves, iters int64) {
	b.Helper()
	if !obs.MetricsEnabled() {
		obs.EnableMetrics()
		defer obs.DisableMetrics()
	}
	s0, i0 := obs.C("spice.newton.solves").Value(), obs.C("spice.newton.iterations").Value()
	if _, err := CharacterizeCell(context.Background(), cell, cfg); err != nil {
		b.Fatal(err)
	}
	return obs.C("spice.newton.solves").Value() - s0, obs.C("spice.newton.iterations").Value() - i0
}
