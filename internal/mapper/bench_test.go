package mapper

import (
	"context"
	"testing"

	"repro/internal/epfl"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

// benchSink keeps the benchmarked netlists alive.
var benchSink *netlist.Netlist

// BenchmarkMap maps the balanced square circuit against the 10 K synthetic
// library in the baseline mode: cut enumeration, cut truth tables and both
// refinement passes, as one standalone Map call runs them.
func BenchmarkMap(b *testing.B) {
	g, err := epfl.Build("square")
	if err != nil {
		b.Fatal(err)
	}
	g = g.Balance()
	lib, used := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := BuildMatchLibrary(lib, used, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := Map(context.Background(), g, ml, Options{K: 5})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = nl
	}
}
