package cec_test

import (
	"testing"

	"repro/internal/cec"
	"repro/internal/epfl"
)

// BenchmarkCheck proves the stored div netlist (internal/gsim/testdata)
// against its EPFL build, as the signoff workload checks each mapped
// netlist: elaboration, sweeping with about 660 SAT calls, output proofs.
func BenchmarkCheck(b *testing.B) {
	src, err := epfl.BuildScaled("div")
	if err != nil {
		b.Fatal(err)
	}
	nl := readStoredNetlist(b, "div")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ea, err := cec.Elaborate(nl)
		if err != nil {
			b.Fatal(err)
		}
		if v := cec.Check(ctx, src, ea, cec.Options{Workers: 1, Seed: digestSeed}); v.Status != cec.Equal {
			b.Fatalf("div: %v", v.Status)
		}
	}
}
