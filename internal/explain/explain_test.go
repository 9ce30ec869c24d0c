package explain_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/qor"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

const clock = 1e-9

// runBaseline executes the real seeded flow on the smallest circuit.
func runBaseline(t *testing.T) *qor.Baseline {
	t.Helper()
	b, err := qor.Run(context.Background(), qor.RunOptions{
		Profile: qor.Profile{
			Name:      "unit",
			Circuits:  []string{"ctrl"},
			Scenarios: []synth.Scenario{synth.BaselinePowerAware},
			Corners:   []float64{300, 10},
			Repeat:    1,
		},
		UseTestlib: true,
		ClockSec:   clock,
	})
	if err != nil {
		t.Fatalf("qor.Run: %v", err)
	}
	return b
}

// TestSelfDiffZeroDelta pins the acceptance property: two runs of the
// identical seeded flow attribute zero delta, even though their wall-clock
// samples differ (runtime is correlation, not QoR).
func TestSelfDiffZeroDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow harness run")
	}
	a := runBaseline(t)
	b := runBaseline(t)
	rep := explain.Diff(a, b)
	if !rep.ZeroDelta || rep.AttributedDeltas != 0 {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("self-diff attributed %d deltas:\n%s", rep.AttributedDeltas, buf.String())
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "zero attributed delta") {
		t.Errorf("text report does not state the zero-delta verdict:\n%s", buf.String())
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"zero_delta": true`) {
		t.Errorf("JSON report missing zero_delta marker:\n%s", buf.String())
	}
}

// swapFixture is a mapped chain with a drive-swappable inverter in the
// middle of its critical path: a -> g1:INVx1 -> g2:INVx1 -> g3:NAND2x1 -> y1,
// plus a short side path b -> g4:INVx1 -> y2.
func swapFixture(t *testing.T) (*netlist.Netlist, *liberty.Library) {
	t.Helper()
	lib, used := testlib.Build(pdk.Catalog(), testlib.Names(), 300)
	nl := netlist.New("swapfix", used)
	nl.Inputs = []string{"a", "b"}
	for _, g := range []struct {
		cell string
		in   []string
		out  string
	}{
		{"INVx1", []string{"a"}, "n1"},
		{"INVx1", []string{"n1"}, "n2"},
		{"NAND2x1", []string{"n2", "b"}, "n3"},
		{"INVx1", []string{"b"}, "n4"},
	} {
		if err := nl.AddGate(g.cell, g.in, g.out); err != nil {
			t.Fatal(err)
		}
	}
	nl.Outputs = []string{"y1", "y2"}
	nl.Aliases["y1"] = "n3"
	nl.Aliases["y2"] = "n4"
	return nl, lib
}

// analyzeCorner runs STA + power on nl and builds the persisted corner
// record the way cryobench does.
func analyzeCorner(t *testing.T, nl *netlist.Netlist, lib *liberty.Library) qor.Corner {
	t.Helper()
	timing, err := sta.Analyze(context.Background(), nl, lib, sta.Options{})
	if err != nil {
		t.Fatalf("sta.Analyze: %v", err)
	}
	rep, cells, err := power.AnalyzeFull(context.Background(), nl, lib,
		power.Options{ClockPeriod: clock, Seed: 1})
	if err != nil {
		t.Fatalf("power.AnalyzeFull: %v", err)
	}
	corner := qor.Corner{
		TempK:       300,
		Gates:       nl.NumGates(),
		Area:        nl.Area(),
		CriticalSec: timing.CriticalDelay,
		WNSSec:      timing.WorstSlack(clock),
		LeakageW:    rep.Leakage,
		DynamicW:    rep.Internal + rep.Switching,
		TotalW:      rep.Total(),
	}
	for _, p := range timing.TopPaths(3, clock) {
		pr := qor.PathRecord{Endpoint: p.Endpoint, ArrivalSec: p.ArrivalSec, SlackSec: p.SlackSec}
		for _, a := range p.Arcs {
			pr.Arcs = append(pr.Arcs, qor.ArcRecord{
				FromNet: a.FromNet, ToNet: a.ToNet, Gate: a.Gate, Cell: a.Cell,
				Pin: a.FromPin, DelaySec: a.DelaySec, ArrivalSec: a.ArrivalSec,
				SlewSec: a.SlewSec, LoadF: a.LoadF,
			})
		}
		corner.Paths = append(corner.Paths, pr)
	}
	for _, c := range power.GroupByCell(cells) {
		corner.PowerByClass = append(corner.PowerByClass, qor.ClassPower{
			Cell: c.Cell, Count: c.Count,
			LeakageW: c.Leakage, InternalW: c.Internal, SwitchingW: c.Switching,
		})
	}
	return corner
}

func mkBaseline(c qor.Corner) *qor.Baseline {
	return &qor.Baseline{
		SchemaVersion: qor.SchemaVersion, Tool: "cryobench", Profile: "unit",
		Circuits: []qor.Circuit{{
			Name: "swapfix", Scenario: "baseline", Deterministic: true,
			Corners: []qor.Corner{c},
		}},
	}
}

// TestCellSwapAttribution is the seeded-mutation acceptance test: swap one
// mapped cell on the critical path to its drive-strength variant, re-run
// the real STA and power engines, and the attribution must name the
// swapped cell on the affected endpoint as cell-driven.
func TestCellSwapAttribution(t *testing.T) {
	nl, lib := swapFixture(t)
	baseCorner := analyzeCorner(t, nl, lib)

	// The mutation: the middle inverter on y1's path doubles its drive.
	const swapped, variant, endpoint = "INVx1", "INVx2", "y1"
	mutated := false
	for i := range nl.Gates {
		if nl.Gates[i].Output == "n2" {
			if nl.Gates[i].Cell != swapped {
				t.Fatalf("fixture drifted: n2 driven by %s", nl.Gates[i].Cell)
			}
			nl.Gates[i].Cell = variant
			mutated = true
		}
	}
	if !mutated {
		t.Fatal("fixture has no n2 driver")
	}
	curCorner := analyzeCorner(t, nl, lib)

	rep := explain.Diff(mkBaseline(baseCorner), mkBaseline(curCorner))
	if rep.ZeroDelta {
		t.Fatalf("cell swap attributed nothing")
	}

	// The affected endpoint's path delta must carry a cell-swap arc naming
	// both cells, classified cell-driven.
	foundSwap := false
	for _, cd := range rep.Circuits {
		for _, c := range cd.Corners {
			for _, p := range c.Paths {
				if p.Endpoint != endpoint {
					continue
				}
				for _, a := range p.Arcs {
					if a.Change != explain.ArcCellSwap {
						continue
					}
					if a.BaseCell != swapped || a.CurCell != variant {
						t.Errorf("swap arc names %s->%s, want %s->%s",
							a.BaseCell, a.CurCell, swapped, variant)
					}
					if a.Driver != explain.DriverCell {
						t.Errorf("swap arc driver = %s, want %s", a.Driver, explain.DriverCell)
					}
					if a.ToNet != "n2" {
						t.Errorf("swap arc on net %s, want n2", a.ToNet)
					}
					foundSwap = true
				}
			}
		}
	}
	if !foundSwap {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("no cell-swap arc on endpoint %s (%s -> %s):\n%s",
			endpoint, swapped, variant, buf.String())
	}

	// The short path y2 is untouched; it must not be attributed.
	for _, cd := range rep.Circuits {
		for _, c := range cd.Corners {
			for _, p := range c.Paths {
				if p.Endpoint == "y2" {
					t.Errorf("untouched endpoint y2 attributed: %+v", p)
				}
			}
		}
	}

	// The rendered reports must name the swap.
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), swapped+"->"+variant) {
		t.Errorf("text report does not name the swap %s->%s:\n%s", swapped, variant, buf.String())
	}
	buf.Reset()
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cell-swap") || !strings.Contains(buf.String(), "cell-driven") {
		t.Errorf("markdown report missing swap classification:\n%s", buf.String())
	}

	// The power breakdown must move between the two classes: INVx1 count
	// drops, INVx2 appears.
	var sawBase, sawVariant bool
	for _, cd := range rep.Circuits {
		for _, c := range cd.Corners {
			for _, p := range c.Power {
				switch p.Cell {
				case swapped:
					sawBase = true
					if p.BaseCount != 3 || p.CurCount != 2 {
						t.Errorf("%s count %d->%d, want 3->2", swapped, p.BaseCount, p.CurCount)
					}
				case variant:
					sawVariant = true
					if p.BaseCount != 0 || p.CurCount != 1 {
						t.Errorf("%s count %d->%d, want 0->1", variant, p.BaseCount, p.CurCount)
					}
				}
			}
		}
	}
	if !sawBase || !sawVariant {
		t.Errorf("power attribution missing swap classes (saw %s=%v, %s=%v)",
			swapped, sawBase, variant, sawVariant)
	}
}
