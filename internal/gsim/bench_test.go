package gsim

import (
	"context"
	"testing"

	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/sta"
	"repro/internal/testlib"
)

// BenchmarkEventRun times the event engine the way the signoff workload
// drives it: a scaled EPFL build mapped against the 10 K testlib library and
// annotated with its arc delays, 64 random vectors per run. The unit case
// runs bar unannotated, every arc DefaultDelayFs, as cryocec's
// counterexample replay and cryosim -unit do. ns/event divides the run time
// by the committed events.
func BenchmarkEventRun(b *testing.B) {
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name, circuit string
		annotate      bool
	}{{"bar", "bar", true}, {"voter", "voter", true}, {"unit", "bar", false}} {
		g, err := epfl.BuildScaled(c.circuit)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := mapper.Map(ctx, g, ml, mapper.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := Compile(nl)
		if err != nil {
			b.Fatal(err)
		}
		if c.annotate {
			if err := m.Annotate(ctx, lib, sta.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		vectors := m.RandomVectors(64, 201)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := NewEvent(m, EventOptions{}).Run(ctx, vectors)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
