package synth

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/epfl"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/testlib"
)

var allScenarios = []Scenario{BaselinePowerAware, CryoPAD, CryoPDA}

func verilogOf(t *testing.T, nl *netlist.Netlist) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := nl.WriteVerilog(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCompareMatchesSynthesize pins the shared front to standalone
// synthesis: finishing one front per scenario, in either order, gives the
// netlist Synthesize gives, and Compare's metrics are those of exactly
// these netlists.
func TestCompareMatchesSynthesize(t *testing.T) {
	ml, _ := buildML(t, 10)
	lib, _ := testlib.Build(catalog, testlib.Names(), 10)
	ctx := context.Background()
	for _, name := range []string{"dec", "adder", "mem_ctrl"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{201, 202} {
			want := make([][]byte, len(allScenarios))
			nets := make([]*netlist.Netlist, len(allScenarios))
			for i, sc := range allScenarios {
				res, err := Synthesize(ctx, g, ml, Options{Scenario: sc, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				want[i], nets[i] = verilogOf(t, res.Netlist), res.Netlist
			}
			f := Prepare(ctx, g, Options{Seed: seed})
			for pass, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
				for _, i := range order {
					res, err := f.Synthesize(ctx, ml, allScenarios[i])
					if err != nil {
						t.Fatal(err)
					}
					if got := verilogOf(t, res.Netlist); !bytes.Equal(got, want[i]) {
						t.Errorf("%s seed %d %v (pass %d): front netlist differs from Synthesize", name, seed, allScenarios[i], pass)
					}
				}
			}

			cmp, err := Compare(ctx, g, ml, lib, FlowOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			delays := make([]float64, len(allScenarios))
			for i, nl := range nets {
				tr, err := sta.Analyze(ctx, nl, lib, sta.Options{})
				if err != nil {
					t.Fatal(err)
				}
				delays[i] = tr.CriticalDelay
				worst = max(worst, tr.CriticalDelay)
			}
			if cmp.ClockPeriod != worst*1.05 {
				t.Errorf("%s seed %d: clock period %g, recomputed %g", name, seed, cmp.ClockPeriod, worst*1.05)
			}
			for i, sc := range allScenarios {
				rep, err := power.Analyze(ctx, nets[i], lib, power.Options{ClockPeriod: worst * 1.05, Seed: seed + int64(i)})
				if err != nil {
					t.Fatal(err)
				}
				m := cmp.Metrics[sc]
				if m.Scenario != sc || m.Gates != nets[i].NumGates() || m.Area != nets[i].Area() ||
					m.Delay != delays[i] || *m.Power != *rep {
					t.Errorf("%s seed %d %v: Compare metrics %+v (power %+v), recomputed gates %d area %g delay %g power %+v",
						name, seed, sc, m, *m.Power, nets[i].NumGates(), nets[i].Area(), delays[i], *rep)
				}
			}
		}
	}
}

// TestCompareRunsFrontOnce checks that Compare runs c2rs and the power
// stage once, and maps, times and power-analyzes once per scenario, while
// the per-Result node-delta counters still add up as three standalone runs
// would.
func TestCompareRunsFrontOnce(t *testing.T) {
	ml, _ := buildML(t, 10)
	lib, _ := testlib.Build(catalog, testlib.Names(), 10)
	g, err := epfl.Build("dec")
	if err != nil {
		t.Fatal(err)
	}
	obs.DisableMetrics()
	reg := obs.EnableMetrics()
	tr := obs.ResetTracing()
	defer obs.DisableMetrics()
	defer obs.DisableTracing()
	if _, err := Compare(context.Background(), g, ml, lib, FlowOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	totals := tr.Totals()
	for name, want := range map[string]int{
		"synth.compare":     1,
		"synth.c2rs":        1,
		"synth.power_stage": 1,
		"synth.synthesize":  3,
		"mapper.map":        3,
		// Power reuses each scenario's clock-setting timing.
		"sta.analyze":   3,
		"power.analyze": 3,
	} {
		if got := totals[name].Count; got != want {
			t.Errorf("%s: %d spans, want %d", name, got, want)
		}
	}

	f := Prepare(context.Background(), g, Options{Seed: 1})
	var c2rsDelta, powerDelta int64
	for _, sc := range allScenarios {
		c := pickCandidate(f.cands, sc)
		c2rsDelta += int64(f.nodesC2RS - f.nodesIn)
		powerDelta += int64(int(c.cost.Area) - f.nodesC2RS)
	}
	counts := reg.CounterValues()
	if counts["synth.runs"] != 3 {
		t.Errorf("synth.runs = %d, want 3", counts["synth.runs"])
	}
	if got := counts["synth.c2rs.nodes_delta"]; got != c2rsDelta {
		t.Errorf("synth.c2rs.nodes_delta = %d, want %d", got, c2rsDelta)
	}
	if got := counts["synth.power_stage.nodes_delta"]; got != powerDelta {
		t.Errorf("synth.power_stage.nodes_delta = %d, want %d", got, powerDelta)
	}
}
