package synth

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
)

// ScenarioMetrics holds the signoff results of one synthesis scenario.
type ScenarioMetrics struct {
	Scenario Scenario
	Gates    int
	Area     float64
	Delay    float64 // critical-path delay from STA
	Power    *power.Report
}

// Comparison is the paper's per-circuit evaluation: all three scenarios
// synthesized, timed, and power-analyzed under the shared clock
// normalization (footnote 1: the clock period is set to the propagation
// delay of the slowest resulting circuit variant, so faster variants are
// not penalized with higher clock rates).
type Comparison struct {
	Circuit     string
	ClockPeriod float64
	Metrics     [3]ScenarioMetrics
}

// FlowOptions configures a comparison run.
type FlowOptions struct {
	Seed int64
}

// Compare synthesizes the circuit under all three scenarios against the
// given characterized library and reports normalized power/delay metrics.
func Compare(ctx context.Context, g *aig.AIG, ml *mapper.MatchLibrary, lib *liberty.Library, opt FlowOptions) (*Comparison, error) {
	ctx, span := obs.Start(ctx, "synth.compare")
	span.SetAttr("design", g.Name)
	defer span.End()
	cmp := &Comparison{Circuit: g.Name}
	scenarios := []Scenario{BaselinePowerAware, CryoPAD, CryoPDA}
	results := make([]*Result, len(scenarios))
	for i, sc := range scenarios {
		res, err := Synthesize(ctx, g, ml, Options{Scenario: sc, Seed: opt.Seed})
		if err != nil {
			return nil, fmt.Errorf("synth: %s scenario %v: %w", g.Name, sc, err)
		}
		results[i] = res
	}
	// STA for every variant; the slowest defines the shared clock.
	var worst float64
	timings := make([]*sta.Result, len(scenarios))
	for i, res := range results {
		tr, err := sta.Analyze(ctx, res.Netlist, lib, sta.Options{})
		if err != nil {
			return nil, fmt.Errorf("synth: %s STA: %w", g.Name, err)
		}
		timings[i] = tr
		if tr.CriticalDelay > worst {
			worst = tr.CriticalDelay
		}
	}
	cmp.ClockPeriod = worst * 1.05 // small guard band over the slowest variant
	for i, sc := range scenarios {
		rep, err := power.Analyze(ctx, results[i].Netlist, lib, power.Options{
			ClockPeriod: cmp.ClockPeriod,
			Seed:        opt.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("synth: %s power: %w", g.Name, err)
		}
		cmp.Metrics[sc] = ScenarioMetrics{
			Scenario: sc,
			Gates:    results[i].Netlist.NumGates(),
			Area:     results[i].Netlist.Area(),
			Delay:    timings[i].CriticalDelay,
			Power:    rep,
		}
	}
	return cmp, nil
}

// PowerSaving returns the fractional power saving of a proposed scenario
// relative to the baseline (positive = the proposed scenario dissipates
// less, the paper's Fig. 3a quantity).
func (c *Comparison) PowerSaving(sc Scenario) float64 {
	base := c.Metrics[BaselinePowerAware].Power.Total()
	if base == 0 {
		return 0
	}
	return (base - c.Metrics[sc].Power.Total()) / base
}

// DelayOverhead returns the fractional delay increase of a proposed
// scenario relative to the baseline (negative = the proposed scenario is
// faster, the paper's Fig. 3b quantity).
func (c *Comparison) DelayOverhead(sc Scenario) float64 {
	base := c.Metrics[BaselinePowerAware].Delay
	if base == 0 {
		return 0
	}
	return (c.Metrics[sc].Delay - base) / base
}

// VerifyMapped checks that a synthesized netlist still realizes the source
// AIG on bit-parallel random patterns (plus exhaustive patterns when the
// input count allows); it returns an error on the first mismatch.
func VerifyMapped(g *aig.AIG, res *Result, rounds int, seed int64) error {
	ng, err := netlist.Compile(res.Netlist)
	if err != nil {
		return err
	}
	pi := make(map[string]int, g.NumPIs())
	for i := 0; i < g.NumPIs(); i++ {
		pi[g.PIName(i)] = i
	}
	inPI := make([]int, len(ng.Inputs))
	for i, name := range ng.InputNames {
		j, ok := pi[name]
		if !ok {
			return fmt.Errorf("synth: netlist input %s is not an AIG input", name)
		}
		inPI[i] = j
	}
	po := make(map[string]int32, len(ng.Outputs))
	for o, name := range ng.OutputNames {
		po[name] = ng.Outputs[o]
	}
	in := make([]uint64, len(ng.Inputs))
	for round := 0; round < rounds; round++ {
		words := make([]uint64, g.NumPIs())
		rng := seededRng(seed + int64(round))
		for i := range words {
			words[i] = rng.Uint64()
			if round == 0 && g.NumPIs() <= 6 {
				words[i] = aig.Truth6Var(i)
			}
		}
		for i := range in {
			in[i] = words[inPI[i]]
		}
		vals := g.SimWords(words)
		netVals, err := ng.SimWords(in)
		if err != nil {
			return err
		}
		for i := 0; i < g.NumPOs(); i++ {
			id, ok := po[g.POName(i)]
			if !ok {
				return fmt.Errorf("synth: output %s undriven", g.POName(i))
			}
			if netVals[id] != aig.EvalLit(vals, g.PO(i)) {
				return fmt.Errorf("synth: output %s mismatches on round %d", g.POName(i), round)
			}
		}
	}
	return nil
}

type xorshift struct{ s uint64 }

func seededRng(seed int64) *xorshift {
	return &xorshift{s: uint64(seed)*2685821657736338717 + 1}
}

func (x *xorshift) Uint64() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
