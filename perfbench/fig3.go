package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/gsim"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// fig3Circuits mixes EPFL arithmetic and control circuits whose
// three-scenario comparison takes 0.15-1.8 s at 10 K on the synthetic
// library (single core). Left out: priority (16-20 s per scenario),
// arbiter (5-7 s per scenario), div (33 s per comparison), hyp (23 s), sin
// (over 280 s), sqrt (10 s), voter (4-5 s) and log2 (3 s), which would
// leave too few items per run for a tail percentile; and the 10-80 ms
// circuits (ctrl, router, i2c, cavlc), whose timings are mostly noise. An
// odd circuit count puts the item median inside one circuit's block of
// repeats rather than between two circuits of different size.
var fig3Circuits = []string{
	"adder", "bar", "max", "multiplier", "square", "dec", "mem_ctrl",
}

// fig3Warmup is the small circuit compared once during set-up.
const fig3Warmup = "dec"

// fig3VerifyRounds is the number of 64-vector rounds the functional oracle
// simulates per mapped netlist.
const fig3VerifyRounds = 8

type fig3Env struct {
	lib  *liberty.Library
	ml   *mapper.MatchLibrary
	aigs map[string]*aig.AIG
	// first and verified hold, per (circuit, flow seed), the first
	// comparison and the functional oracle's verdict: Compare is
	// deterministic, so a repeated comparison must match the first exactly.
	first    map[string]*synth.Comparison
	verified map[string]error
}

// setupFig3 builds the 10 K synthetic library, its match library and the
// circuits' AIGs, as cryosynth -fig3 -testlib does, then compares one small
// circuit to warm the process up.
func setupFig3(ctx context.Context, seed int64) (passFunc, error) {
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		return nil, err
	}
	env := &fig3Env{lib: lib, ml: ml, aigs: map[string]*aig.AIG{},
		first: map[string]*synth.Comparison{}, verified: map[string]error{}}
	for _, name := range append([]string{fig3Warmup}, fig3Circuits...) {
		g, err := epfl.Build(name)
		if err != nil {
			return nil, err
		}
		env.aigs[name] = g
	}
	if _, err := synth.Compare(ctx, env.aigs[fig3Warmup], ml, lib, synth.FlowOptions{Seed: seed}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return func(p int) []*item {
		// Passes alternate between two successive flow seeds, so every
		// comparison is repeated and its QoR must match exactly, while the
		// oracle re-synthesizes each (circuit, flow seed) only once.
		flowSeed := seed + int64(p%2)
		order := append([]string(nil), fig3Circuits...)
		passRand(seed, p).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		items := make([]*item, len(order))
		for i, name := range order {
			items[i] = env.item(name, flowSeed)
		}
		return items
	}, nil
}

func (env *fig3Env) item(name string, flowSeed int64) *item {
	g := env.aigs[name]
	return &item{
		name: fmt.Sprintf("%s/seed%d", name, flowSeed),
		run: func(ctx context.Context) (func() error, error) {
			cmp, err := call(ctx, "synth.Compare", func(ctx context.Context) (*synth.Comparison, error) {
				return synth.Compare(ctx, g, env.ml, env.lib, synth.FlowOptions{Seed: flowSeed})
			})
			if err != nil {
				return nil, err
			}
			obs.C("bench.synth.nodes_in").Add(int64(len(cmp.Metrics) * g.NumNodes()))
			return func() error { return env.check(g, flowSeed, cmp) }, nil
		},
	}
}

// check is the synth_fig3 oracle: the comparison's QoR repeats exactly for
// a repeated (circuit, flow seed), and every scenario's mapped netlist —
// re-derived with the same deterministic options Compare uses — computes
// its source AIG's function and matches Compare's gate count and area.
func (env *fig3Env) check(g *aig.AIG, flowSeed int64, cmp *synth.Comparison) error {
	key := fmt.Sprintf("%s/%d", g.Name, flowSeed)
	if prev, ok := env.first[key]; ok {
		if err := sameQoR(prev, cmp); err != nil {
			return err
		}
	} else {
		env.first[key] = cmp
	}
	if err, ok := env.verified[key]; ok {
		return err
	}
	err := env.verifyNetlists(g, flowSeed, cmp)
	env.verified[key] = err
	return err
}

func (env *fig3Env) verifyNetlists(g *aig.AIG, flowSeed int64, cmp *synth.Comparison) error {
	for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
		res, err := synth.Synthesize(context.Background(), g, env.ml, synth.Options{Scenario: sc, Seed: flowSeed})
		if err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
		m := cmp.Metrics[sc]
		if res.Netlist.NumGates() != m.Gates || res.Netlist.Area() != m.Area {
			return fmt.Errorf("%v: re-synthesis gives %d gates / area %g, Compare reported %d / %g",
				sc, res.Netlist.NumGates(), res.Netlist.Area(), m.Gates, m.Area)
		}
		if err := checkFunction(g, res.Netlist, flowSeed); err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
	}
	return nil
}

// sameQoR requires two comparisons of one circuit and flow seed to agree
// exactly.
func sameQoR(a, b *synth.Comparison) error {
	if a.ClockPeriod != b.ClockPeriod {
		return fmt.Errorf("clock period %g, first run %g", b.ClockPeriod, a.ClockPeriod)
	}
	for i := range a.Metrics {
		x, y := a.Metrics[i], b.Metrics[i]
		if x.Gates != y.Gates || x.Area != y.Area || x.Delay != y.Delay || x.Power.Total() != y.Power.Total() {
			return fmt.Errorf("%v QoR differs from the first run with this seed", x.Scenario)
		}
	}
	return nil
}

// checkFunction simulates the mapped netlist with the levelized gsim
// engine and the AIG by direct evaluation on the same seeded vectors, and
// requires every primary output to agree.
func checkFunction(g *aig.AIG, nl *netlist.Netlist, seed int64) error {
	m, err := gsim.Compile(nl)
	if err != nil {
		return err
	}
	pi := map[string]int{}
	for i := 0; i < g.NumPIs(); i++ {
		pi[g.PIName(i)] = i
	}
	for i, name := range m.InputNames {
		if _, ok := pi[name]; !ok {
			return fmt.Errorf("netlist input %s (port %d) is not an AIG input", name, i)
		}
	}
	out := map[string]int32{}
	for i, name := range m.OutputNames {
		out[name] = m.Outputs[i]
	}
	if len(out) != g.NumPOs() {
		return fmt.Errorf("netlist has %d outputs, AIG %d", len(out), g.NumPOs())
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < fig3VerifyRounds; round++ {
		words := make([]uint64, g.NumPIs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		in := make([]uint64, len(m.Inputs))
		for i, name := range m.InputNames {
			in[i] = words[pi[name]]
		}
		nets, err := m.SimWords(in)
		if err != nil {
			return err
		}
		vals := g.SimWords(words)
		for o := 0; o < g.NumPOs(); o++ {
			idx, ok := out[g.POName(o)]
			if !ok {
				return fmt.Errorf("AIG output %s is not a netlist output", g.POName(o))
			}
			if got, want := nets[idx], aig.EvalLit(vals, g.PO(o)); got != want {
				return fmt.Errorf("output %s differs from the AIG (round %d)", g.POName(o), round)
			}
		}
	}
	return nil
}
