package charlib

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pdk"
)

// BenchmarkCharacterizeCell times the QuickConfig characterization of one
// combinational and one sequential cell at 300 K and 10 K on one worker,
// and reports seconds per characterized cell (s/cell): the per-layer view
// of the char2corner workload.
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
			})
		}
	}
}
