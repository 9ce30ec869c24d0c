package qor

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/synth"
)

// twoBaselines builds a matched (base, cur) pair for diff tests.
func twoBaselines() (*Baseline, *Baseline) {
	mk := func() *Baseline {
		return &Baseline{
			SchemaVersion: SchemaVersion,
			Tool:          "cryobench",
			Profile:       "smoke",
			Repeat:        2,
			Seed:          1,
			ClockSec:      1e-9,
			Testlib:       true,
			Circuits: []Circuit{{
				Name: "ctrl", Scenario: "baseline",
				AIGNodesIn: 120, AIGNodesOpt: 90, AIGDepthOpt: 9,
				Deterministic: true,
				Corners: []Corner{
					{TempK: 300, Gates: 40, Area: 80, CriticalSec: 3e-10,
						WNSSec: 7e-10, TNSSec: 0, LeakageW: 1e-8, DynamicW: 2e-6, TotalW: 2.01e-6},
					{TempK: 10, Gates: 40, Area: 80, CriticalSec: 2.5e-10,
						WNSSec: 7.5e-10, TNSSec: 0, LeakageW: 1e-12, DynamicW: 1.8e-6, TotalW: 1.8e-6},
				},
			}},
		}
	}
	return mk(), mk()
}

func TestDiffClean(t *testing.T) {
	base, cur := twoBaselines()
	rep := Diff(base, cur)
	if rep.QoRRegressions != 0 {
		t.Fatalf("clean diff reported regressions: %+v", rep)
	}
	if rep.Failed() {
		t.Errorf("clean diff failed")
	}
}

func TestDiffInjectedWNSRegression(t *testing.T) {
	base, cur := twoBaselines()
	// Inject a WNS degradation at the 10 K corner: slack shrinks by 50 ps.
	cur.Circuits[0].Corners[1].WNSSec -= 50e-12
	rep := Diff(base, cur)
	if rep.QoRRegressions != 1 {
		t.Fatalf("want exactly 1 QoR regression, got %d", rep.QoRRegressions)
	}
	if !rep.Failed() {
		t.Errorf("WNS regression must fail the gate")
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf, false); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "wns_seconds") || !strings.Contains(out, "REGRESSED") {
		t.Errorf("table does not name the regression:\n%s", out)
	}
	buf.Reset()
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	if !strings.Contains(buf.String(), "**REGRESSED**") {
		t.Errorf("markdown does not flag the regression:\n%s", buf.String())
	}
}

func TestDiffImprovementIsNotFailure(t *testing.T) {
	base, cur := twoBaselines()
	cur.Circuits[0].Corners[0].TotalW *= 0.9 // power got better
	rep := Diff(base, cur)
	if rep.QoRRegressions != 0 {
		t.Fatalf("improvement counted as regression")
	}
	found := false
	for _, e := range rep.Entries {
		if e.Metric == "total_w" && e.Verdict == Improved {
			found = true
		}
	}
	if !found {
		t.Errorf("improvement not classified as Improved")
	}
}

func TestDiffDroppedCircuitIsHardFailure(t *testing.T) {
	base, cur := twoBaselines()
	cur.Circuits = nil
	rep := Diff(base, cur)
	if rep.QoRRegressions == 0 || !rep.Failed() {
		t.Errorf("dropped circuit did not fail the gate")
	}
}

func TestDiffDroppedCornerIsHardFailure(t *testing.T) {
	base, cur := twoBaselines()
	// The 10 K corner vanishes from the current run: lost coverage.
	cur.Circuits[0].Corners = cur.Circuits[0].Corners[:1]
	rep := Diff(base, cur)
	if rep.QoRRegressions == 0 || !rep.Failed() {
		t.Fatalf("dropped corner did not fail the gate: %+v", rep)
	}
	found := false
	for _, e := range rep.Entries {
		if e.Metric == "corner" && e.Verdict == Missing && strings.Contains(e.Key, "@10K") {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped corner not reported as Missing: %+v", rep.Entries)
	}
}

func TestDiffNewCornerIsNotFailure(t *testing.T) {
	base, cur := twoBaselines()
	base.Circuits[0].Corners = base.Circuits[0].Corners[:1]
	rep := Diff(base, cur)
	if rep.QoRRegressions != 0 {
		t.Errorf("new corner counted as regression: %+v", rep.Entries)
	}
}

func TestVersionErrorIsTyped(t *testing.T) {
	b, _ := twoBaselines()
	b.SchemaVersion = SchemaVersion + 7
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBaseline(&buf)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %T: %v", err, err)
	}
	if ve.Got != SchemaVersion+7 || ve.Want != SchemaVersion {
		t.Errorf("VersionError fields wrong: %+v", ve)
	}
}

func TestDiffNondeterminismFails(t *testing.T) {
	base, cur := twoBaselines()
	cur.Circuits[0].Deterministic = false
	rep := Diff(base, cur)
	if !rep.Failed() {
		t.Errorf("nondeterministic run did not fail the gate")
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := FindProfile(name)
		if err != nil {
			t.Fatalf("FindProfile(%s): %v", name, err)
		}
		if len(p.Circuits) == 0 || len(p.Scenarios) == 0 || len(p.Corners) == 0 {
			t.Errorf("profile %s is degenerate: %+v", name, p)
		}
	}
	if _, err := FindProfile("nope"); err == nil {
		t.Errorf("unknown profile did not error")
	}
}

// TestRunSmokeSingle executes the real harness end to end on the smallest
// circuit with the synthetic library: schema shape, determinism flag,
// provenance, and a self-diff that must be clean.
func TestRunSmokeSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow harness run")
	}
	prof := Profile{
		Name:      "unit",
		Circuits:  []string{"ctrl"},
		Scenarios: []synth.Scenario{synth.BaselinePowerAware},
		Corners:   []float64{300, 10},
		Repeat:    2,
	}
	b, err := Run(context.Background(), RunOptions{Profile: prof, UseTestlib: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.SchemaVersion != SchemaVersion || b.Tool != "cryobench" {
		t.Errorf("header wrong: %+v", b)
	}
	if len(b.Circuits) != 1 {
		t.Fatalf("want 1 circuit record, got %d", len(b.Circuits))
	}
	c := b.Circuits[0]
	if !c.Deterministic {
		t.Errorf("seeded flow flagged nondeterministic")
	}
	if len(c.Corners) != 2 || c.Corners[0].Gates == 0 || c.Corners[1].TotalW <= 0 {
		t.Errorf("corner QoR not populated: %+v", c.Corners)
	}
	if c.Corners[0].LeakageW <= c.Corners[1].LeakageW {
		t.Errorf("cryogenic leakage (%g) not below 300K leakage (%g)",
			c.Corners[1].LeakageW, c.Corners[0].LeakageW)
	}
	// Stage wall times go to the process tracer (and from there to the
	// -journal run summary), not into the baseline.
	if _, ok := obs.Tracing().Totals()["synth.synthesize"]; !ok {
		t.Errorf("tracer has no synth.synthesize span after Run")
	}
	// v2 provenance: each corner must carry critical paths (with named
	// cells and arcs) and a power breakdown by cell class.
	for _, corner := range c.Corners {
		if len(corner.Paths) == 0 {
			t.Fatalf("@%gK: no path provenance recorded", corner.TempK)
		}
		p := corner.Paths[0]
		if p.Endpoint == "" || len(p.Arcs) == 0 {
			t.Errorf("@%gK: degenerate path record: %+v", corner.TempK, p)
		}
		for i, a := range p.Arcs {
			if a.ToNet == "" {
				t.Errorf("@%gK: arc without net: %+v", corner.TempK, a)
			}
			// The first arc is the launch point (a primary input): no
			// gate, zero delay. Every later arc traverses a mapped cell.
			if i > 0 && (a.Cell == "" || a.DelaySec <= 0) {
				t.Errorf("@%gK: degenerate arc record: %+v", corner.TempK, a)
			}
		}
		if len(corner.PowerByClass) == 0 {
			t.Errorf("@%gK: no power-by-class breakdown", corner.TempK)
		}
		var sum float64
		for _, cp := range corner.PowerByClass {
			if cp.Cell == "" || (cp.Count <= 0 && cp.Cell != InputNetsClass) {
				t.Errorf("@%gK: degenerate class power: %+v", corner.TempK, cp)
			}
			sum += cp.LeakageW + cp.InternalW + cp.SwitchingW
		}
		if rel := math.Abs(sum-corner.TotalW) / corner.TotalW; rel > 1e-9 {
			t.Errorf("@%gK: power classes sum to %g, corner total %g (rel err %g)",
				corner.TempK, sum, corner.TotalW, rel)
		}
	}

	// JSON round trip.
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	// Self-diff must be perfectly clean on QoR.
	rep := Diff(back, b)
	if rep.QoRRegressions != 0 || rep.Failed() {
		var tbl bytes.Buffer
		rep.WriteTable(&tbl, true)
		t.Errorf("self-diff not clean:\n%s", tbl.String())
	}
}

// TestSmokeMatchesCommittedBaseline is the exact QoR gate of `make bench`
// and CI, run by go test: the smoke profile on the synthetic library must
// reproduce bench/baseline-smoke.json with no QoR regression and no
// nondeterminism. The flow's floating-point results are only pinned per
// platform, so another GOOS/GOARCH skips.
func TestSmokeMatchesCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow harness run")
	}
	base, err := ReadBaselineFile(filepath.Join("..", "..", "bench", "baseline-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	if here := runtime.GOOS + "/" + runtime.GOARCH; base.GoOSArch != here {
		t.Skipf("baseline recorded on %s, running on %s", base.GoOSArch, here)
	}
	if !base.Testlib {
		t.Fatalf("committed smoke baseline is not a testlib recording")
	}
	prof, err := FindProfile(base.Profile)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Run(context.Background(), RunOptions{
		Profile:    prof,
		Repeat:     base.Repeat,
		Seed:       base.Seed,
		ClockSec:   base.ClockSec,
		UseTestlib: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep := Diff(base, cur); rep.Failed() {
		var tbl bytes.Buffer
		rep.WriteTable(&tbl, false)
		t.Fatalf("smoke run does not match the committed baseline:\n%s", tbl.String())
	}
}
