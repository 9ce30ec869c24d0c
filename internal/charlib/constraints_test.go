package charlib

import (
	"context"
	"errors"
	"testing"

	"repro/internal/spice"
)

func TestSetupHoldDFF(t *testing.T) {
	cell := cellByName(t, "DFFx1")
	cfg := QuickConfig(300)
	setup, hold, err := MeasureSetupHold(cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DFFx1 @300K: setup %.2f ps, hold %.2f ps", setup*1e12, hold*1e12)
	// Setup must be a positive, picosecond-scale window.
	if setup <= 0 || setup > 100e-12 {
		t.Errorf("setup = %v s implausible", setup)
	}
	// Hold can be negative (data may be withdrawn at/before the edge for
	// master-slave flops) but must be bounded.
	if hold > 60e-12 || hold < -60e-12 {
		t.Errorf("hold = %v s implausible", hold)
	}
	if setup <= hold {
		t.Errorf("setup (%v) must exceed hold (%v)", setup, hold)
	}
}

func TestSetupHoldRejectsCombinational(t *testing.T) {
	cell := cellByName(t, "NAND2x1")
	if _, _, err := MeasureSetupHold(cell, QuickConfig(300)); err == nil {
		t.Error("combinational cell accepted for constraint measurement")
	}
	latch := cellByName(t, "DLATCHx1")
	if _, _, err := MeasureSetupHold(latch, QuickConfig(300)); err == nil {
		t.Error("latch accepted for flop constraint measurement")
	}
}

func TestAttachConstraints(t *testing.T) {
	cell := cellByName(t, "DFFx1")
	cfg := QuickConfig(300)
	lc, err := CharacterizeCell(context.Background(), cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachConstraints(lc, cell, cfg); err != nil {
		t.Fatal(err)
	}
	d := lc.FindPin("D")
	var setupArc, holdArc bool
	for _, tm := range d.Timings {
		switch tm.Type {
		case "setup_rising":
			setupArc = true
			if tm.CellRise.Values[0][0] <= 0 {
				t.Error("setup arc non-positive")
			}
		case "hold_rising":
			holdArc = true
		}
	}
	if !setupArc || !holdArc {
		t.Errorf("constraint arcs missing: setup=%v hold=%v", setupArc, holdArc)
	}
}

// TestSetupHoldHonorsIterLimit pins the setup/hold testbench to the corner's
// Newton budget: two iterations cannot settle the 4 K exponentials, so the
// search must fail with a nonconvergence error instead of bisecting on
// unconverged solves.
func TestSetupHoldHonorsIterLimit(t *testing.T) {
	cfg := QuickConfig(4)
	cfg.NewtonIterLimit = 2
	_, _, err := MeasureSetupHold(cellByName(t, "DFFx1"), cfg)
	if !errors.Is(err, spice.ErrNoConvergence) {
		t.Fatalf("MeasureSetupHold with NewtonIterLimit=2 at 4 K: err = %v, want spice.ErrNoConvergence", err)
	}
}
