package power

import (
	"context"
	"testing"

	"repro/internal/gsim"
	"repro/internal/netlist"
	"repro/internal/testlib"
)

// TestMeasuredActivityMatchesModel pins the Options.Activity contract: a
// zero-delay gsim run over the same seeded stimulus stream the built-in
// activity model draws must reproduce the model's power report bit for bit
// (the activity is identical and summed in the same order).
func TestMeasuredActivityMatchesModel(t *testing.T) {
	ctx := context.Background()
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	nl := demoNetlist(used)

	const seed = 3
	model, err := Analyze(ctx, nl, lib, Options{ClockPeriod: 1e-9, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	m, err := gsim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gsim.NewLevelized(m).Run(ctx, m.RandomVectors(simRounds*64, seed))
	if err != nil {
		t.Fatal(err)
	}
	measured, err := Analyze(ctx, nl, lib, Options{ClockPeriod: 1e-9, Activity: res.ToggleRates()})
	if err != nil {
		t.Fatal(err)
	}
	if *measured != *model {
		t.Errorf("measured %+v, model %+v", *measured, *model)
	}
}

// TestGlitchPowerExceedsZeroDelay is the acceptance fixture: on the hazard
// circuit y = XOR(a, INV(INV(a))), event-driven measured activity sees the
// glitch pulses a zero-delay model provably cannot, so the measured dynamic
// power must come out strictly higher.
func TestGlitchPowerExceedsZeroDelay(t *testing.T) {
	ctx := context.Background()
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	nl := netlist.New("glitch", used)
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"y"}
	for _, g := range []struct {
		cell string
		in   []string
		out  string
	}{
		{"INVx1", []string{"a"}, "n1"},
		{"INVx1", []string{"n1"}, "n2"},
		{"XOR2x1", []string{"a", "n2"}, "y"},
	} {
		if err := nl.AddGate(g.cell, g.in, g.out); err != nil {
			t.Fatal(err)
		}
	}
	m, err := gsim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	// A clock-like input: a toggles every vector, the worst case for hazards.
	vectors := make([]gsim.Vector, 256)
	for v := range vectors {
		vectors[v] = gsim.Vector{v%2 == 1}
	}
	zero, err := gsim.NewLevelized(m).Run(ctx, vectors)
	if err != nil {
		t.Fatal(err)
	}
	glitchy, err := gsim.NewEvent(m, gsim.EventOptions{}).Run(ctx, vectors)
	if err != nil {
		t.Fatal(err)
	}
	repZero, err := Analyze(ctx, nl, lib, Options{ClockPeriod: 1e-9, Activity: zero.ToggleRates()})
	if err != nil {
		t.Fatal(err)
	}
	repGlitch, err := Analyze(ctx, nl, lib, Options{ClockPeriod: 1e-9, Activity: glitchy.ToggleRates()})
	if err != nil {
		t.Fatal(err)
	}
	zeroDyn := repZero.Internal + repZero.Switching
	glitchDyn := repGlitch.Internal + repGlitch.Switching
	if glitchDyn <= zeroDyn {
		t.Errorf("glitch-aware dynamic power %v not above zero-delay %v", glitchDyn, zeroDyn)
	}
	if repGlitch.Leakage != repZero.Leakage {
		t.Errorf("leakage must not depend on activity: %v vs %v", repGlitch.Leakage, repZero.Leakage)
	}
}
