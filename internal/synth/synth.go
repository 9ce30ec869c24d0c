// Package synth implements the paper's three-stage synthesis pipeline
// (Section V-B):
//
//  1. Technology-independent AIG compression — the c2rs script: a chain of
//     balancing, Boolean resubstitution, rewriting, and refactoring.
//  2. Power-aware optimization — structural choices (dch), k-LUT collapse
//     (if), SAT-based don't-care resubstitution (mfs -pegd), and strash,
//     with the cost hierarchy of the selected scenario.
//  3. Technology mapping (map) with the scenario's cost-priority list.
//
// The three scenarios are the paper's: the state-of-the-art power-aware
// baseline, and the two proposed cryogenic-aware priority lists
// power->area->delay and power->delay->area.
package synth

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Scenario selects the synthesis cost hierarchy.
type Scenario int

// The paper's three evaluation scenarios.
const (
	// BaselinePowerAware: unmodified priority lists with ABC's best power
	// optimizations enabled (power as final tie-breaker).
	BaselinePowerAware Scenario = iota
	// CryoPAD: the proposed power -> area -> delay hierarchy.
	CryoPAD
	// CryoPDA: the proposed power -> delay -> area hierarchy.
	CryoPDA
)

// String names the scenario as in the paper's figures.
func (s Scenario) String() string {
	switch s {
	case CryoPAD:
		return "p->a->d"
	case CryoPDA:
		return "p->d->a"
	default:
		return "baseline"
	}
}

// MapMode returns the matching technology-mapping cost mode.
func (s Scenario) MapMode() mapper.CostMode {
	switch s {
	case CryoPAD:
		return mapper.PowerAreaDelay
	case CryoPDA:
		return mapper.PowerDelayArea
	default:
		return mapper.Baseline
	}
}

// Options configures a synthesis run.
type Options struct {
	Scenario Scenario
	Seed     int64 // simulation seed for activity/don't-care extraction
	// SkipMfs disables the SAT-based don't-care stage (ablation).
	SkipMfs bool
	// SkipChoices disables the structural-choice variants (ablation).
	SkipChoices bool
}

// Cut sizes: technology-mapping cuts (stage 3) and the power-aware stage's
// k-LUTs (stage 2).
const (
	mapK = 5
	lutK = 6
)

// Result carries the synthesis outcome with per-stage statistics.
type Result struct {
	Scenario Scenario
	// Stage sizes: input, after c2rs, after the power-aware stage.
	NodesIn, NodesC2RS, NodesPower int
	DepthIn, DepthOut              int
	Optimized                      *aig.AIG
	Netlist                        *netlist.Netlist
}

// Synthesize runs the full pipeline on the input AIG against the match
// library.
func Synthesize(ctx context.Context, g *aig.AIG, ml *mapper.MatchLibrary, opt Options) (*Result, error) {
	ctx, span := obs.Start(ctx, "synth.synthesize")
	span.SetAttr("design", g.Name)
	span.SetAttr("scenario", opt.Scenario.String())
	defer span.End()
	obs.C("synth.runs").Inc()
	res := &Result{Scenario: opt.Scenario, NodesIn: g.NumNodes(), DepthIn: g.Depth()}

	// Stage 1: c2rs.
	_, c2rsSpan := obs.Start(ctx, "synth.c2rs")
	step1 := c2rs(g, opt.Seed)
	c2rsSpan.SetAttr("nodes_in", res.NodesIn)
	c2rsSpan.SetAttr("nodes_out", step1.NumNodes())
	c2rsSpan.End()
	res.NodesC2RS = step1.NumNodes()
	obs.C("synth.c2rs.nodes_delta").Add(int64(res.NodesC2RS - res.NodesIn))

	// Stage 2: dch -p; if -p; mfs -pegd; strash.
	_, powSpan := obs.Start(ctx, "synth.power_stage")
	step2 := powerStage(step1, opt)
	powSpan.End()
	res.NodesPower = step2.NumNodes()
	res.DepthOut = step2.Depth()
	res.Optimized = step2
	obs.C("synth.power_stage.nodes_delta").Add(int64(res.NodesPower - res.NodesC2RS))

	// Stage 3: technology mapping with the scenario's priority list.
	nl, err := mapper.Map(ctx, step2, ml, mapper.Options{Mode: opt.Scenario.MapMode(), K: mapK})
	if err != nil {
		return nil, fmt.Errorf("synth: mapping: %w", err)
	}
	res.Netlist = nl
	return res, nil
}

// c2rs approximates ABC's compress2rs shortcut: balance and interleaved
// resubstitution / rewriting / refactoring rounds.
func c2rs(g *aig.AIG, seed int64) *aig.AIG {
	ropt := aig.DefaultResubOptions()
	ropt.Seed = seed + 1
	cur := g.Balance()
	cur = cur.Resub(ropt)
	cur = cur.Rewrite(false)
	ropt.Seed = seed + 2
	cur = cur.Resub(ropt)
	cur = cur.Refactor()
	cur = cur.Balance()
	cur = cur.Rewrite(true)
	cur = cur.Balance()
	return cur
}

// powerStage implements dch/if/mfs/strash with scenario-dependent variant
// selection: several structurally different versions of the network are
// prepared (the "choices"), each is collapsed to k-LUTs with power-aware
// cut selection, minimized with SAT don't-cares, and structurally hashed
// back; the variant that wins under the scenario's cost hierarchy is kept.
func powerStage(g *aig.AIG, opt Options) *aig.AIG {
	variants := []*aig.AIG{g}
	if !opt.SkipChoices {
		variants = append(variants, g.Rewrite(true), g.Balance())
	}
	type scored struct {
		net   *aig.AIG
		power float64
		size  float64
		depth float64
	}
	var best *scored
	for _, v := range variants {
		lut := v.MapLUT(aig.LUTMapOptions{K: lutK, PowerAware: true})
		if !opt.SkipMfs {
			mopt := aig.DefaultMfsOptions()
			mopt.PowerAware = true
			mopt.Seed = opt.Seed + 7
			lut.Mfs(mopt)
		}
		back := lut.Strash()
		s := &scored{
			net:   back,
			power: totalActivity(back),
			size:  float64(back.NumNodes()),
			depth: float64(back.Depth()),
		}
		if best == nil || stageBetter(s.power, s.size, s.depth, best.power, best.size, best.depth, opt.Scenario) {
			best = s
		}
	}
	return best.net
}

// totalActivity sums switching activity over the AND nodes: the
// technology-independent dynamic-power proxy.
func totalActivity(g *aig.AIG) float64 {
	act := g.Activities()
	var sum float64
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		sum += act[v]
	}
	return sum
}

// stageBetter compares stage-2 variants under the scenario's hierarchy.
func stageBetter(p1, s1, d1, p2, s2, d2 float64, sc Scenario) bool {
	cmp := func(a, b float64) int {
		const eps = 0.06
		scale := a
		if b > scale {
			scale = b
		}
		if scale <= 0 {
			return 0
		}
		switch {
		case a < b-eps*scale:
			return -1
		case a > b+eps*scale:
			return 1
		default:
			return 0
		}
	}
	var keys [][2]float64
	switch sc {
	case CryoPAD:
		keys = [][2]float64{{p1, p2}, {s1, s2}, {d1, d2}}
	case CryoPDA:
		keys = [][2]float64{{p1, p2}, {d1, d2}, {s1, s2}}
	default:
		keys = [][2]float64{{s1, s2}, {d1, d2}, {p1, p2}}
	}
	for _, k := range keys {
		if c := cmp(k[0], k[1]); c != 0 {
			return c < 0
		}
	}
	return false
}
