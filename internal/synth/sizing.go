package synth

import (
	"context"
	"sort"
	"strings"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/sta"
)

// ResizeResult summarizes a gate-sizing pass.
type ResizeResult struct {
	Downsized, Upsized int
	DelayBefore        float64
	DelayAfter         float64
}

// ResizeForPower performs slack-guided drive-strength assignment on a
// mapped netlist: gates with timing slack are swapped to smaller drive
// variants of the same function (saving internal energy, input capacitance,
// and leakage), and gates on violating paths are upsized back until the
// delay limit holds. delayBudget is the allowed critical-path delay as a
// multiple of the pre-sizing delay (e.g. 1.02 protects delay, 1.3 trades it
// away). This is the gate-sizing step real power-aware flows run after
// mapping; Synthesize and Compare leave sizes as mapped.
func ResizeForPower(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, staOpt sta.Options, delayBudget float64) (*ResizeResult, error) {
	ctx, span := obs.Start(ctx, "synth.resize")
	span.SetAttr("design", nl.Name)
	defer span.End()
	res, err := sta.Analyze(ctx, nl, lib, staOpt)
	if err != nil {
		return nil, err
	}
	out := &ResizeResult{DelayBefore: res.CriticalDelay}
	limit := res.CriticalDelay * delayBudget

	// Timing reruns on the compiled graph: a swap rewrites the gate's cell
	// in the netlist and in its graph node, and a pass retimes only when a
	// swap happened since the last analysis.
	g := res.Graph
	stale := false
	swap := func(gi int, cell string) {
		nl.Gates[gi].Cell = cell
		g.Gates[gi].Cell, g.Gates[gi].Def = cell, nl.Cell(cell)
		stale = true
	}
	retime := func() (err error) {
		if stale {
			res, err = sta.AnalyzeGraph(ctx, g, lib, staOpt)
			stale = false
		}
		return err
	}

	families := driveFamilies(nl)
	// Downsizing sweep: a few iterations of slack-guided swaps.
	for iter := 0; iter < 4; iter++ {
		if err := retime(); err != nil {
			return nil, err
		}
		slacks := res.NetSlacks(limit)
		changed := 0
		for gi := range nl.Gates {
			smaller := nextDrive(families, nl.Gates[gi].Cell, -1)
			slack := slacks[g.Gates[gi].Out]
			if smaller == "" || slack <= 0 {
				continue
			}
			alt, err := res.Bind(nl.Cell(smaller))
			if err != nil {
				return nil, err
			}
			penalty := delayAt(res, gi, alt) - delayAt(res, gi, res.Bound[gi])
			if penalty <= 0 || slack > 3*penalty {
				swap(gi, smaller)
				changed++
				out.Downsized++
			}
		}
		if changed == 0 {
			break
		}
	}
	// Repair: upsize along the critical path until the limit holds.
	for iter := 0; iter < 8; iter++ {
		if err := retime(); err != nil {
			return nil, err
		}
		out.DelayAfter = res.CriticalDelay
		if res.CriticalDelay <= limit {
			break
		}
		critical := make([]bool, len(g.Nets))
		for _, net := range res.CriticalPath {
			id, _ := g.NetIndex(net)
			critical[id] = true
		}
		changed := 0
		for gi := range nl.Gates {
			if !critical[g.Gates[gi].Out] {
				continue
			}
			bigger := nextDrive(families, nl.Gates[gi].Cell, +1)
			if bigger == "" {
				continue
			}
			swap(gi, bigger)
			changed++
			out.Upsized++
		}
		if changed == 0 {
			break
		}
	}
	if out.DelayAfter == 0 {
		if err := retime(); err != nil {
			return nil, err
		}
		out.DelayAfter = res.CriticalDelay
	}
	obs.C("synth.resize.downsized").Add(int64(out.Downsized))
	obs.C("synth.resize.upsized").Add(int64(out.Upsized))
	span.SetAttr("downsized", out.Downsized)
	span.SetAttr("upsized", out.Upsized)
	return out, nil
}

// driveFamilies groups the netlist's available cell variants by base
// function, sorted by drive strength.
func driveFamilies(nl *netlist.Netlist) map[string][]*pdk.Cell {
	fams := map[string][]*pdk.Cell{}
	seen := map[string]bool{}
	for _, g := range nl.Gates {
		def := nl.Cell(g.Cell)
		if def == nil || seen[def.Base] {
			continue
		}
		seen[def.Base] = true
		// Probe all drives of this base via the name convention BASExD.
		for _, d := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
			name := def.Base + "x" + itoa(d)
			if c := nl.Cell(name); c != nil {
				fams[def.Base] = append(fams[def.Base], c)
			}
		}
		sort.Slice(fams[def.Base], func(i, j int) bool {
			return fams[def.Base][i].Drive < fams[def.Base][j].Drive
		})
	}
	return fams
}

// nextDrive returns the name of the adjacent drive variant (dir = -1
// smaller, +1 larger), or "" when none exists.
func nextDrive(fams map[string][]*pdk.Cell, cellName string, dir int) string {
	base := cellName
	if i := strings.LastIndex(cellName, "x"); i > 0 {
		base = cellName[:i]
	}
	fam := fams[base]
	for i, c := range fam {
		if c.Name == cellName {
			j := i + dir
			if j < 0 || j >= len(fam) {
				return ""
			}
			return fam[j].Name
		}
	}
	return ""
}

// delayAt estimates gate gi's worst arc delay if it were implemented with
// the bound cell ca, at the operating point from the last STA.
func delayAt(res *sta.Result, gi int, ca *sta.CellArcs) float64 {
	node := &res.Graph.Gates[gi]
	load := res.Load[node.Out]
	var worst float64
	for i, net := range node.In {
		if d := ca.Arcs[i].Timing.Delay(res.Slew[net], load); d > worst {
			worst = d
		}
	}
	return worst
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
