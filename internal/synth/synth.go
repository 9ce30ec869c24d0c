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
	"slices"

	"repro/internal/aig"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Scenario selects the synthesis cost hierarchy: the mapper's cost mode,
// which ranks both the stage-2 choice and the mapped cells.
type Scenario = mapper.CostMode

// The paper's three evaluation scenarios.
const (
	// BaselinePowerAware: unmodified priority lists with ABC's best power
	// optimizations enabled (power as final tie-breaker).
	BaselinePowerAware = mapper.Baseline
	// CryoPAD: the proposed power -> area -> delay hierarchy.
	CryoPAD = mapper.PowerAreaDelay
	// CryoPDA: the proposed power -> delay -> area hierarchy.
	CryoPDA = mapper.PowerDelayArea
)

// Options configures a synthesis run.
type Options struct {
	Scenario Scenario
	Seed     int64 // simulation seed for activity/don't-care extraction
	// SkipMfs disables the SAT-based don't-care stage (ablation).
	SkipMfs bool
	// SkipChoices disables the structural-choice variants (ablation).
	SkipChoices bool
}

// mapK is the technology-mapping cut size (stage 3).
const mapK = 5

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
// library: Prepare followed by the scenario's finish.
func Synthesize(ctx context.Context, g *aig.AIG, ml *mapper.MatchLibrary, opt Options) (*Result, error) {
	ctx, span := startSynthesize(ctx, g.Name, opt.Scenario)
	defer span.End()
	return Prepare(ctx, g, opt).finish(ctx, ml, opt.Scenario)
}

// Front is the part of a synthesis run that neither the scenario nor the
// library corner changes: the c2rs result and the scored power-stage
// candidates. Only the choice among the candidates and the technology
// mapping read the scenario, and only the mapping reads the library, so
// one Front serves every scenario and corner of a circuit. Finishing
// changes nothing but the candidates' mapping cut tables, which fill on
// first use and are safe to share, so a Front may be finished
// concurrently.
type Front struct {
	name             string
	seed             int64
	nodesIn, depthIn int
	nodesC2RS        int
	cands            []candidate
}

// candidate is one power-stage variant with its stage-2 cost and its
// mapping cut table, filled by the first scenario or corner that maps it
// and shared by the rest. The cost ranks the variant's switching-activity
// sum, node count and depth as power, area and delay.
type candidate struct {
	net  *aig.AIG
	cuts *mapper.CutTable
	cost mapper.Cost
}

// Prepare runs stages 1 and 2 up to the scenario-dependent choice: c2rs,
// then the power-stage candidates. opt.Scenario is not read.
func Prepare(ctx context.Context, g *aig.AIG, opt Options) *Front {
	f := &Front{name: g.Name, seed: opt.Seed, nodesIn: g.NumNodes(), depthIn: g.Depth()}

	// Stage 1: c2rs.
	_, c2rsSpan := obs.Start(ctx, "synth.c2rs")
	step1 := c2rs(g, opt.Seed)
	f.nodesC2RS = step1.z.NumNodes()
	c2rsSpan.SetAttr("nodes_in", f.nodesIn)
	c2rsSpan.SetAttr("nodes_out", f.nodesC2RS)
	c2rsSpan.End()

	// Stage 2: dch -p; if -p; mfs -pegd; strash.
	_, powSpan := obs.Start(ctx, "synth.power_stage")
	var built int
	f.cands, built = powerCandidates(step1.variants(opt), opt)
	powSpan.SetAttr("distinct", built)
	powSpan.End()
	return f
}

// Synthesize finishes the front under one scenario against the match
// library: it picks the scenario's power-stage candidate and maps it.
func (f *Front) Synthesize(ctx context.Context, ml *mapper.MatchLibrary, sc Scenario) (*Result, error) {
	ctx, span := startSynthesize(ctx, f.name, sc)
	defer span.End()
	return f.finish(ctx, ml, sc)
}

func startSynthesize(ctx context.Context, design string, sc Scenario) (context.Context, *obs.Span) {
	ctx, span := obs.Start(ctx, "synth.synthesize")
	span.SetAttr("design", design)
	span.SetAttr("scenario", sc.String())
	return ctx, span
}

func (f *Front) finish(ctx context.Context, ml *mapper.MatchLibrary, sc Scenario) (*Result, error) {
	obs.C("synth.runs").Inc()
	best := pickCandidate(f.cands, sc)
	res := &Result{
		Scenario:   sc,
		NodesIn:    f.nodesIn,
		NodesC2RS:  f.nodesC2RS,
		NodesPower: int(best.cost.Area),
		DepthIn:    f.depthIn,
		DepthOut:   int(best.cost.Delay),
		Optimized:  best.net,
	}
	obs.C("synth.c2rs.nodes_delta").Add(int64(res.NodesC2RS - res.NodesIn))
	obs.C("synth.power_stage.nodes_delta").Add(int64(res.NodesPower - res.NodesC2RS))

	// Stage 3: technology mapping with the scenario's priority list.
	nl, err := mapper.MapTable(ctx, best.cuts, ml, mapper.Options{Mode: sc, K: mapK})
	if err != nil {
		return nil, fmt.Errorf("synth: mapping: %w", err)
	}
	res.Netlist = nl
	return res, nil
}

// releaseCuts empties the candidates' mapping cut tables; a later finish
// refills the one it maps.
func (f *Front) releaseCuts() {
	for i := range f.cands {
		f.cands[i].cuts.Release()
	}
}

// C2RS is the flow's stage 1 at opt.Seed, the graph the power stage
// starts from.
func C2RS(g *aig.AIG, opt Options) *aig.AIG { return c2rs(g, opt.Seed).z }

// c2rs approximates ABC's compress2rs shortcut: balance and interleaved
// resubstitution / rewriting / refactoring rounds.
func c2rs(g *aig.AIG, seed int64) c2rsTail {
	cur := g.Balance()
	cur = cur.Resub(seed + 1)
	cur = cur.Rewrite(false)
	cur = cur.Resub(seed + 2)
	cur = cur.Refactor()
	x := cur.Balance()
	y := x.Rewrite(true)
	return c2rsTail{x: x, y: y, z: y.Balance()}
}

// c2rsTail is the c2rs result z with the graphs its last two passes read
// and built: y = x.Rewrite(true) and z = y.Balance().
type c2rsTail struct{ x, y, z *aig.AIG }

// variants returns the power stage's structural choices: z, its
// Rewrite(true) and its Balance(). Both passes read only what
// SameStructure compares, so a z with the structure of x rewrites to y,
// and a z with the structure of y balances to z itself; c2rs built those
// already, and the pass runs only when the check fails.
func (t c2rsTail) variants(opt Options) []*aig.AIG {
	if opt.SkipChoices {
		return []*aig.AIG{t.z}
	}
	rw := t.y
	if !t.z.SameStructure(t.x) {
		rw = t.z.Rewrite(true)
	}
	bal := t.z
	if !t.z.SameStructure(t.y) {
		bal = t.z.Balance()
	}
	return []*aig.AIG{t.z, rw, bal}
}

// powerCandidates implements dch/if/mfs/strash up to the choice: the
// structurally different versions of the network (the "choices") are each
// collapsed to k-LUTs with power-aware cut selection, minimized with SAT
// don't-cares, structurally hashed back and scored. A variant with the
// same structure as an earlier one shares that variant's candidate, net
// and cut table included: every step is a function of the structure and
// the seed, so a rebuild would give the same candidate. It returns the
// candidates, one per variant, and how many were built.
func powerCandidates(variants []*aig.AIG, opt Options) ([]candidate, int) {
	cands := make([]candidate, len(variants))
	built := 0
	for i, v := range variants {
		if j := slices.IndexFunc(variants[:i], v.SameStructure); j >= 0 {
			cands[i] = cands[j]
			continue
		}
		back := LUTPack(v, opt)
		cands[i] = candidate{
			net:  back,
			cuts: mapper.NewCutTable(back),
			cost: mapper.Cost{
				Power: totalActivity(back),
				Area:  float64(back.NumNodes()),
				Delay: float64(back.Depth()),
			},
		}
		built++
	}
	return cands, built
}

// LUTPack is the power stage's if/mfs/strash step on one structural
// choice: power-aware 6-LUT mapping, power-aware don't-care minimization
// at opt.Seed+7 (unless opt.SkipMfs) and structural hashing back.
func LUTPack(g *aig.AIG, opt Options) *aig.AIG {
	lut := g.MapLUT()
	if !opt.SkipMfs {
		lut.Mfs(opt.Seed + 7)
	}
	return lut.Strash()
}

// pickCandidate keeps the variant that wins under the scenario's cost
// hierarchy; on a tie the earlier variant stays.
func pickCandidate(cands []candidate, sc Scenario) *candidate {
	best := &cands[0]
	for i := 1; i < len(cands); i++ {
		c := &cands[i]
		if sc.Better(c.cost, best.cost) {
			best = c
		}
	}
	return best
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
