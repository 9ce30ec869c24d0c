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

// TestZeroBaseDeltaIsNotZero: a metric whose baseline is 0 has no relative
// change, so a TNS regression from 0 to -5 ps must not read +0.00%.
func TestZeroBaseDeltaIsNotZero(t *testing.T) {
	base, cur := twoBaselines()
	cur.Circuits[0].Corners[1].TNSSec = -5e-12
	rep := Diff(base, cur)
	if rep.QoRRegressions != 1 {
		t.Fatalf("want exactly 1 QoR regression, got %d", rep.QoRRegressions)
	}
	var table, md bytes.Buffer
	if err := rep.WriteTable(&table, false); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"table": table.String(), "markdown": md.String()} {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "tns_seconds") && strings.Contains(line, "+0.00%") {
				t.Errorf("%s reads a 0 -> -5 ps TNS move as +0.00%%: %q", name, line)
			}
		}
		if !strings.Contains(out, "n/a") {
			t.Errorf("%s does not mark the undefined relative delta:\n%s", name, out)
		}
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

// TestReadBaselineRejectsRepeatedKeys: a baseline that repeats a (circuit,
// scenario) key, or a corner temperature within one circuit, fails to load
// with an error naming the repeat, since a diff would compare only the last
// record of the key.
func TestReadBaselineRejectsRepeatedKeys(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(b *Baseline)
	}{
		{"circuit", "repeats circuit ctrl/baseline", func(b *Baseline) {
			b.Circuits = append(b.Circuits, b.Circuits[0])
		}},
		{"corner", "repeats corner ctrl/baseline @300K", func(b *Baseline) {
			c := &b.Circuits[0]
			c.Corners = append(c.Corners, c.Corners[0])
		}},
	} {
		b := goldenBaseline()
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBaseline(&buf); err != nil {
			t.Fatalf("%s: unedited baseline: %v", tc.name, err)
		}
		tc.edit(b)
		buf.Reset()
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBaseline(&buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
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

// TestSameQoRSeesProvenance: Run marks a record nondeterministic when a
// repetition moves any provenance, even with the scalar QoR unchanged.
func TestSameQoRSeesProvenance(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Circuit)
		same   bool
	}{
		{"identical", func(*Circuit) {}, true},
		{"arc slew", func(c *Circuit) { c.Corners[0].Paths[0].Arcs[1].SlewSec *= 1.5 }, false},
		{"class count", func(c *Circuit) { c.Corners[0].PowerByClass[1].Count++ }, false},
		{"aig depth", func(c *Circuit) { c.AIGDepthOpt++ }, false},
	} {
		rec, rep := &goldenBaseline().Circuits[0], &goldenBaseline().Circuits[0]
		tc.mutate(rep)
		if got := sameQoR(rec, rep); got != tc.same {
			t.Errorf("%s: sameQoR = %v, want %v", tc.name, got, tc.same)
		}
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
	if obs.Tracing() == nil {
		obs.EnableTracing()
		defer obs.DisableTracing()
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
	// Stage wall times go to the caller's tracer (and from there to
	// -trace), not into the baseline.
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

// TestRunLeavesTelemetrySwitches: Run records into whatever metrics
// registry and span tracer the caller installed and switches neither on
// nor off, so a library caller (or a test) never inherits process-global
// telemetry from it.
func TestRunLeavesTelemetrySwitches(t *testing.T) {
	prevReg, prevTr := obs.Metrics(), obs.Tracing()
	defer func() {
		obs.DisableMetrics()
		obs.DisableTracing()
		if prevReg != nil {
			obs.EnableMetrics()
		}
		if prevTr != nil {
			obs.EnableTracing()
		}
	}()
	prof := Profile{
		Name:      "unit",
		Circuits:  []string{"ctrl"},
		Scenarios: []synth.Scenario{synth.BaselinePowerAware},
		Corners:   []float64{300},
		Repeat:    1,
	}
	run := func() {
		t.Helper()
		if _, err := Run(context.Background(), RunOptions{Profile: prof, UseTestlib: true}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}

	obs.DisableMetrics()
	obs.DisableTracing()
	run()
	if obs.MetricsEnabled() || obs.Tracing() != nil {
		t.Errorf("Run switched telemetry on: metrics %v, tracing %v", obs.MetricsEnabled(), obs.Tracing() != nil)
	}

	reg, tr := obs.EnableMetrics(), obs.EnableTracing()
	run()
	if obs.Metrics() != reg || obs.Tracing() != tr {
		t.Error("Run replaced the caller's registry or tracer")
	}
	if _, ok := tr.Totals()["qor.rep"]; !ok {
		t.Error("caller's tracer has no qor.rep span after Run")
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
