package spice

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
)

// buildHardInverter wires a cryogenic CMOS inverter biased mid-rail — with
// a tiny iteration budget the steep 4 K exponentials cannot settle, which
// is the supported way to force a nonconvergent solve.
func buildHardInverter(tempK float64, maxIter int) *Circuit {
	c := New(tempK)
	c.MaxIter = maxIter
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource(vdd, Ground, DC(0.7))
	c.NameLast("Vdd")
	c.AddVSource(in, Ground, DC(0.35))
	c.NameLast("Vin")
	c.AddMOSFET(device.NewP(2), out, in, vdd, vdd)
	c.NameLast("MP1(in)")
	c.AddMOSFET(device.NewN(1), out, in, Ground, Ground)
	c.NameLast("MN1(in)")
	return c
}

func TestConvergenceErrorDiagnosis(t *testing.T) {
	c := buildHardInverter(4, 2)
	_, err := c.OpPoint()
	if err == nil {
		t.Fatal("expected nonconvergence with MaxIter=2 at 4 K")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error chain lost ErrNoConvergence: %v", err)
	}
	ce := AsConvergenceError(err)
	if ce == nil {
		t.Fatalf("error carries no ConvergenceError: %v", err)
	}
	d := ce.Diag
	if d.WorstNode == "" {
		t.Error("diagnosis names no worst node")
	}
	if d.Iters == 0 || len(d.History) == 0 {
		t.Errorf("diagnosis has no iteration history: %+v", d)
	}
	if len(d.Devices) == 0 {
		t.Fatal("diagnosis attributes no device residuals")
	}
	for _, dev := range d.Devices {
		if dev.Device == "" || dev.Residual < 0 {
			t.Errorf("bad device residual %+v", dev)
		}
	}
	// The attribution must use the builder-assigned names.
	joined := ""
	for _, dev := range d.Devices {
		joined += dev.Device + " "
	}
	if !strings.Contains(joined, "M") && !strings.Contains(joined, "V") {
		t.Errorf("device attribution lost element names: %q", joined)
	}
	if d.Phase == "" {
		t.Error("diagnosis has no phase")
	}
	// The error string itself must be actionable.
	if !strings.Contains(err.Error(), d.WorstNode) {
		t.Errorf("error text %q does not name worst node %q", err.Error(), d.WorstNode)
	}
}

func TestConvergedSolveHasNoDiagnosis(t *testing.T) {
	c := buildHardInverter(300, 0) // default budget converges at 300 K
	if _, err := c.OpPoint(); err != nil {
		t.Fatalf("300 K inverter must converge: %v", err)
	}
}

func TestElemNames(t *testing.T) {
	c := New(300)
	a, b := c.Node("a"), c.Node("b")
	c.AddResistor(a, b, 100)
	c.AddCapacitor(b, Ground, 1e-15)
	c.NameLast("Cload")
	if got := c.ElemName(0); got != "R#0" {
		t.Errorf("auto name = %q, want R#0", got)
	}
	if got := c.ElemName(1); got != "Cload" {
		t.Errorf("assigned name = %q, want Cload", got)
	}
	if got := c.ElemName(99); got != "?" {
		t.Errorf("out of range name = %q", got)
	}
}

func TestGminExhaustedCounterWiring(t *testing.T) {
	// The exhausted counter and full-depth observation must reference the
	// same ladder; a drive-by edit that changes one side silently skews the
	// histogram semantics.
	if gminLadderFullDepth != float64(len(gminLadder)) {
		t.Fatalf("gminLadderFullDepth %v out of sync with ladder length %d",
			gminLadderFullDepth, len(gminLadder))
	}
	if gminLadder[len(gminLadder)-1] != baseGmin {
		t.Fatal("gmin ladder must end at baseGmin")
	}
}
