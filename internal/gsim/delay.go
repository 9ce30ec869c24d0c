package gsim

import (
	"context"
	"fmt"

	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/sta"
)

// Annotate attaches per-arc transport delays from a characterized liberty
// library: one STA pass computes every net's worst-case input slew and
// capacitive load (the same loading model the signoff timer uses), then
// each gate arc gets the worse of its rise/fall NLDM delays looked up at
// that (slew, load) operating point, quantized to femtoseconds. After
// annotation the event engine's glitch timing tracks the characterized
// corner instead of unit delays.
func (m *Model) Annotate(ctx context.Context, lib *liberty.Library, opt sta.Options) error {
	ctx, span := obs.Start(ctx, "gsim.annotate")
	span.SetAttr("design", m.Name)
	defer span.End()
	timing, err := sta.AnalyzeGraph(ctx, m.Graph, lib, opt)
	if err != nil {
		return fmt.Errorf("gsim: annotate: %w", err)
	}
	delays := make([][]int64, len(m.Gates))
	for gi := range m.Gates {
		g := &m.Gates[gi]
		load := timing.Load[g.Out]
		delays[gi] = make([]int64, len(g.In))
		for i, in := range g.In {
			d := timing.Bound[gi].Arcs[i].Timing.Delay(timing.Slew[in], load)
			fs := int64(d*1e15 + 0.5)
			if fs < 1 {
				fs = 1 // keep causality: every arc advances time
			}
			delays[gi][i] = fs
		}
	}
	m.DelayFs = delays
	obs.C("gsim.annotations").Inc()
	span.SetAttr("settle_fs", m.SettleBoundFs())
	return nil
}
