package synth

import (
	"context"
	"testing"

	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/testlib"
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

// BenchmarkCompare times synth.Compare (the front, then three scenarios'
// mapping, timing and power) on the seven synth_fig3 circuits against the
// 10 K synthetic library at flow seed 201 and reports seconds per
// comparison (s/op): the per-layer view of one synth_fig3 item.
func BenchmarkCompare(b *testing.B) {
	lib, cells := testlib.Build(catalog, testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"adder", "bar", "max", "multiplier", "square", "dec", "mem_ctrl"} {
		g, err := epfl.Build(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compare(context.Background(), g, ml, lib, FlowOptions{Seed: 201}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/op")
		})
	}
}
