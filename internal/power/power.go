// Package power implements signoff-style power analysis of mapped netlists:
// leakage, internal, and net-switching power, split exactly the way the
// paper's Fig. 2(c) reports them. Switching activity comes from
// random-vector simulation of the netlist; slews and loads come from STA.
package power

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sta"
)

// simRounds is the number of 64-vector rounds of the built-in activity
// model.
const simRounds = 8

// Options configures a power run.
type Options struct {
	ClockPeriod float64 // cycle time used to convert per-cycle energy to watts
	Seed        int64   // random stimulus seed of the activity model
	// Activity, when non-nil, overrides the random-vector activity model
	// with per-net toggles per cycle keyed by net name — for instance
	// gsim's measured Result.ToggleRates, glitches included. Nets absent
	// from the map are treated as quiet.
	Activity map[string]float64
}

// Report is the power breakdown in watts.
type Report struct {
	Leakage   float64
	Internal  float64
	Switching float64
	// ClockPeriod echoes the normalization period used.
	ClockPeriod float64
}

// Total returns the summed power.
func (r *Report) Total() float64 { return r.Leakage + r.Internal + r.Switching }

// LeakageShare returns the leakage fraction of total power (the quantity
// the paper shows collapsing from ~15 % at 300 K to ~0.003 % at 10 K).
func (r *Report) LeakageShare() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return r.Leakage / t
}

// Analyze computes the three-way power split of a mapped netlist.
func Analyze(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, opt Options) (*Report, error) {
	rep, _, err := AnalyzeTimed(ctx, nl, lib, nil, opt)
	return rep, err
}

// AnalyzeTimed computes the power totals and the per-instance attribution
// (the "report_power -cell" view of a signoff tool) in one activity pass
// on a timing the caller may already have: timing must be sta.Analyze of
// nl and lib under sta.Options{}, so a flow that times a netlist for its
// clock does not time it again for power. A nil timing is computed here,
// inside the power span. The instance sums equal the Report's totals
// except for primary-input net switching, which has no owning gate. The
// Report sums are accumulated in the same deterministic order as ever
// (gates for leakage/internal, sorted nets for switching), so totals are
// bit-identical whether or not the timing is supplied — the QoR
// regression gate compares them exactly.
func AnalyzeTimed(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, timing *sta.Result, opt Options) (*Report, []CellPower, error) {
	ctx, span := obs.Start(ctx, "power.analyze")
	span.SetAttr("design", nl.Name)
	defer span.End()
	obs.C("power.analyses").Inc()
	if opt.ClockPeriod <= 0 {
		return nil, nil, fmt.Errorf("power: clock period must be positive")
	}
	var err error
	if timing == nil {
		if timing, err = sta.Analyze(ctx, nl, lib, sta.Options{}); err != nil {
			return nil, nil, err
		}
	}
	g := timing.Graph
	var rates []float64
	if opt.Activity != nil {
		rates = make([]float64, len(g.Nets))
		for id, net := range g.Nets {
			rates[id] = opt.Activity[net]
		}
		span.SetAttr("activity", "measured")
		obs.C("power.measured_activity").Inc()
	} else if rates, err = activity(g, opt.Seed); err != nil {
		return nil, nil, err
	}
	rep := &Report{ClockPeriod: opt.ClockPeriod}
	freq := 1.0 / opt.ClockPeriod
	vdd := lib.Vdd
	cells := make([]CellPower, len(g.Gates))
	for gi := range g.Gates {
		node := &g.Gates[gi]
		bound := timing.Bound[gi]
		cp := CellPower{Gate: node.Name, Cell: node.Cell, Leakage: bound.Cell.LeakagePower}
		rep.Leakage += cp.Leakage

		// Internal power: per output-net toggle, the average of rise/fall
		// internal energy at the gate's operating point, attributed to the
		// worst-slew input arc (PrimeTime-style simplification).
		if alpha := rates[node.Out]; alpha > 0 {
			load := timing.Load[node.Out]
			var eSum float64
			var arcs int
			for i, in := range node.In {
				pw := bound.Arcs[i].Power
				if pw == nil {
					continue
				}
				slew := timing.Slew[in]
				eSum += 0.5 * (pw.RisePower.Lookup(slew, load) + pw.FallPower.Lookup(slew, load))
				arcs++
			}
			if arcs > 0 {
				cp.Internal = alpha * freq * (eSum / float64(arcs))
				rep.Internal += cp.Internal
			}
			// Switching charged to the gate's output net (the Report's
			// switching total is summed separately below so primary-input
			// nets, which no gate owns, are included too).
			cp.Switching = alpha * freq * 0.5 * load * vdd * vdd
		}
		cells[gi] = cp
	}
	// Net switching power: alpha * f * 1/2 * C * Vdd^2 over loaded nets.
	// Nets are visited in name order so the floating-point sum is
	// bit-reproducible and independent of net numbering (the QoR
	// regression gate compares it exactly).
	nets := make([]int32, 0, len(g.Nets))
	for id, load := range timing.Load {
		if load != 0 && rates[id] != 0 {
			nets = append(nets, int32(id))
		}
	}
	sort.Slice(nets, func(i, j int) bool { return g.Nets[nets[i]] < g.Nets[nets[j]] })
	for _, id := range nets {
		rep.Switching += rates[id] * freq * 0.5 * timing.Load[id] * vdd * vdd
	}
	return rep, cells, nil
}

// activity measures per-net toggles per cycle over simRounds*64 random
// vectors: each round draws one word per primary input in port order, the
// stream gsim.Model.RandomVectors produces for the same seed.
func activity(g *netlist.Graph, seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	toggles := make([]int64, len(g.Nets))
	in := make([]uint64, len(g.Inputs))
	// Rounds alternate between two planes, so prev stays intact.
	planes := [2][]uint64{make([]uint64, len(g.Nets)), make([]uint64, len(g.Nets))}
	var prev []uint64
	for r := 0; r < simRounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		vals, err := g.SimWordsInto(planes[r&1], in)
		if err != nil {
			return nil, err
		}
		netlist.AddToggles(toggles, prev, vals, 64)
		prev = vals
	}
	rates := make([]float64, len(toggles))
	for id, t := range toggles {
		rates[id] = float64(t) / (simRounds * 64)
	}
	return rates, nil
}
