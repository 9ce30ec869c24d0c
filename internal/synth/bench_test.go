package synth

import (
	"context"
	"testing"

	"repro/internal/epfl"
)

// BenchmarkPrepare times the synthesis front (c2rs and the power-stage
// candidates) of three Fig. 3 circuits at flow seed 201 and reports
// seconds per front (s/op): the per-layer view of the front of the
// synth_fig3 workload. adder and square build one power-stage candidate,
// mem_ctrl three.
func BenchmarkPrepare(b *testing.B) {
	for _, name := range []string{"adder", "square", "mem_ctrl"} {
		g, err := epfl.Build(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Prepare(context.Background(), g, Options{Seed: 201})
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/op")
		})
	}
}
