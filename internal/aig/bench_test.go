package aig_test

import (
	"fmt"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// sink keeps the benchmarked results alive.
var sink any

// benchAIG builds a balanced EPFL circuit as the pass input: square is one
// of the Fig. 3 circuits and takes every pass a few milliseconds.
func benchAIG(b *testing.B) *aig.AIG {
	b.Helper()
	g, err := epfl.Build("square")
	if err != nil {
		b.Fatal(err)
	}
	return g.Balance()
}

func BenchmarkRewrite(b *testing.B) {
	g := benchAIG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Rewrite(false)
	}
}

func BenchmarkRefactor(b *testing.B) {
	g := benchAIG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Refactor()
	}
}

func BenchmarkResub(b *testing.B) {
	g := benchAIG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Resub(1)
	}
}

func BenchmarkMapLUT(b *testing.B) {
	g := benchAIG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.MapLUT()
	}
}

// BenchmarkEnumerateCuts times the cut kernel alone on scaled square and
// sin, at each (k, maxCuts) shape the flow enumerates.
func BenchmarkEnumerateCuts(b *testing.B) {
	for _, name := range []string{"square", "sin"} {
		g, err := epfl.BuildScaled(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, shape := range cutShapes {
			b.Run(fmt.Sprintf("%s/k%d_c%d", name, shape[0], shape[1]), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = g.EnumerateCuts(shape[0], shape[1])
				}
			})
		}
	}
}
