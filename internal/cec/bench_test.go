package cec_test

import (
	"testing"

	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/testlib"
)

// BenchmarkCheck proves a mapped netlist against its EPFL build, as the
// signoff workload checks each one: elaboration, then the check.
//   - div: the stored netlist (internal/gsim/testdata), 32 inputs, so the
//     sweep with about 660 SAT calls and the output proofs;
//   - sin: scaled sin mapped on the 10 K testlib as signoff maps it, 14
//     inputs, so exhaustive simulation of 2^14 patterns and no SAT;
//   - voter: scaled voter mapped the same way, a sweep whose proofs share
//     one solver with many unrelated cones. Before proofs decided only
//     inside their own cone, decision-heap work was about 44% of its
//     profile; now Solve is about a third, the heap about 8%.
func BenchmarkCheck(b *testing.B) {
	b.Run("div", func(b *testing.B) {
		benchCheck(b, "div", readStoredNetlist(b, "div"))
	})
	for _, name := range []string{"sin", "voter"} {
		b.Run(name, func(b *testing.B) {
			benchCheck(b, name, mapScaled(b, name))
		})
	}
}

// mapScaled maps the scaled EPFL build on the 10 K testlib as signoff does.
func mapScaled(b *testing.B, name string) *netlist.Netlist {
	src, err := epfl.BuildScaled(name)
	if err != nil {
		b.Fatal(err)
	}
	lib, cells := testlib.Build(catalog, testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := mapper.Map(ctx, src, ml, mapper.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

func benchCheck(b *testing.B, name string, nl *netlist.Netlist) {
	src, err := epfl.BuildScaled(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ea, err := cec.Elaborate(nl)
		if err != nil {
			b.Fatal(err)
		}
		if v := cec.Check(ctx, src, ea, cec.Options{Workers: 1, Seed: digestSeed}); v.Status != cec.Equal {
			b.Fatalf("%s: %v", name, v.Status)
		}
	}
}
