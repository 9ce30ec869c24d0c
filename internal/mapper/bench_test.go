package mapper

import (
	"context"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

// benchSink keeps the benchmarked netlists alive.
var benchSink *netlist.Netlist

// BenchmarkMap maps against the 10 K synthetic library in the baseline
// mode: cut enumeration with cut functions, match lookup and both
// refinement passes, as one standalone Map call runs them. square is the
// balanced Fig. 3 circuit; multiplier_scaled is the scaled multiplier
// (7,740 gates) that signoff maps unbalanced, its largest set-up map.
func BenchmarkMap(b *testing.B) {
	lib, used := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := BuildMatchLibrary(lib, used, 6)
	if err != nil {
		b.Fatal(err)
	}
	square, err := epfl.Build("square")
	if err != nil {
		b.Fatal(err)
	}
	multiplier, err := epfl.BuildScaled("multiplier")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *aig.AIG
	}{{"square", square.Balance()}, {"multiplier_scaled", multiplier}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nl, err := Map(context.Background(), c.g, ml, Options{K: 5})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = nl
			}
		})
	}
}
