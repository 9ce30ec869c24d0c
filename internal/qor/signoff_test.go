package qor

import (
	"context"
	"strings"
	"testing"

	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// TestSignoffRejectsWrongNetlist swaps the cell of a gate that drives a
// primary output for its complement (same pins, inverted function): the
// output flips on every pattern, so signoff must fail and count it.
func TestSignoffRejectsWrongNetlist(t *testing.T) {
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 300)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := epfl.Build("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := synth.Synthesize(ctx, g, ml, synth.Options{Scenario: synth.BaselinePowerAware, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs.EnableMetrics()
	failures := obs.C("qor.signoff.failures")
	if err := signoff(ctx, g, res, 1); err != nil {
		t.Fatalf("unmutated netlist rejected: %v", err)
	}

	complement := map[string]string{
		"INVx1": "BUFx1", "BUFx1": "INVx1",
		"NAND2x1": "AND2x1", "AND2x1": "NAND2x1",
		"NOR2x1": "OR2x1", "OR2x1": "NOR2x1",
		"NAND3x1": "AND3x1", "AND3x1": "NAND3x1",
		"NOR3x1": "OR3x1", "OR3x1": "NOR3x1",
		"XOR2x1": "XNOR2x1", "XNOR2x1": "XOR2x1",
		"MUX2x1": "MUXI2x1", "MUXI2x1": "MUX2x1",
		"MAJ3x1": "MAJI3x1", "MAJI3x1": "MAJ3x1",
	}
	nl := res.Netlist
	outputs := make(map[string]bool, len(nl.Outputs))
	for _, o := range nl.Outputs {
		outputs[o] = true
		if net, ok := nl.Aliases[o]; ok {
			outputs[net] = true
		}
	}
	mutated := -1
	for i := range nl.Gates {
		if alt, ok := complement[nl.Gates[i].Cell]; ok && outputs[nl.Gates[i].Output] {
			nl.Gates[i].Cell = alt
			mutated = i
			break
		}
	}
	if mutated < 0 {
		t.Fatal("no output-driving gate with a complementary cell")
	}
	before := failures.Value()
	err = signoff(ctx, g, res, 1)
	if err == nil || !strings.Contains(err.Error(), "mismatches") {
		t.Fatalf("gate %s swapped to %s: signoff returned %v, want an output mismatch",
			nl.Gates[mutated].Name, nl.Gates[mutated].Cell, err)
	}
	if got := failures.Value() - before; got != 1 {
		t.Errorf("qor.signoff.failures grew by %d, want 1", got)
	}
}
