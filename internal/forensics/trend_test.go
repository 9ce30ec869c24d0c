package forensics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/qor"
)

// runEvents journals one run the way the -journal flag does: run.start
// carrying the bin, then run.end at tns carrying the summary.
func runEvents(tns int64, run string, sum obs.RunSummary) []obs.Event {
	detail, err := json.Marshal(&sum)
	if err != nil {
		panic(err)
	}
	return []obs.Event{
		{Seq: 1, TNs: tns - 1, Run: run, Kind: obs.KindRunStart, Attrs: map[string]string{"bin": "cryobench"}},
		{Seq: 2, TNs: tns, Run: run, Kind: obs.KindRunEnd, Detail: detail},
	}
}

// histRec journals one benchmark run with a fixed metrics snapshot and
// stage time plus the given QoR metrics.
func histRec(tns int64, run string, qorVals map[string]float64) []obs.Event {
	return runEvents(tns, run, obs.RunSummary{
		Metrics: &obs.Snapshot{
			Counters: map[string]int64{"spice.newton.iterations": 1000 + tns},
		},
		Stages: map[string]float64{"synth.opt": 0.5},
		QoR:    qorVals,
	})
}

// journals concatenates per-run event slices, as forensics.Load would over
// several journal files.
func journals(runs ...[]obs.Event) []obs.Event {
	var out []obs.Event
	for _, r := range runs {
		out = append(out, r...)
	}
	return out
}

func mustTrend(t *testing.T, evs []obs.Event, globs []string, last int) *TrendReport {
	t.Helper()
	rep, err := Trend(evs, globs, last)
	if err != nil {
		t.Fatalf("Trend: %v", err)
	}
	return rep
}

func TestFlattenRecord(t *testing.T) {
	evs := runEvents(10, "r-flat", obs.RunSummary{
		Metrics: &obs.Snapshot{
			Counters: map[string]int64{"cec.sat.calls": 12},
			Gauges:   map[string]float64{"synth.map.area": 42.5},
			Histograms: map[string]obs.HistogramSnapshot{
				"charlib.cell.seconds": {Count: 4, Sum: 2},
				"empty.hist":           {Count: 0},
			},
		},
		Stages: map[string]float64{"qor.flow": 1.5},
		QoR:    map[string]float64{"qor.ctrl/pad@10K.area": 7},
	})
	flat, err := FlattenRecord(evs, "r-flat")
	if err != nil {
		t.Fatalf("FlattenRecord: %v", err)
	}
	want := map[string]float64{
		"cec.sat.calls":              12,
		"synth.map.area":             42.5,
		"charlib.cell.seconds.count": 4,
		"charlib.cell.seconds.mean":  0.5,
		"empty.hist.count":           0,
		"stage.qor.flow":             1.5,
		"qor.ctrl/pad@10K.area":      7,
	}
	if len(flat) != len(want) {
		t.Errorf("flat keys = %v", flat)
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("flat[%q] = %g, want %g", k, flat[k], v)
		}
	}
	if _, err := FlattenRecord(evs, "r-other"); err == nil {
		t.Error("FlattenRecord accepted a run without a run.end summary")
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"*", "anything.at/all@10K", true},
		{"qor.*", "qor.ctrl/pad@10K.area", true}, // '*' crosses '/' and '@'
		{"qor.*", "stage.qor.flow", false},       // anchored prefix
		{"*.area", "qor.ctrl/pad@10K.area", true},
		{"qor.*.area", "qor.ctrl/pad@10K.area", true},
		{"qor.*.area", "qor.ctrl/pad@10K.gates", false},
		{"exact.name", "exact.name", true},
		{"exact.name", "exact.names", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.name); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

// TestTrendDriftAndQuiet is the acceptance scenario: three identical runs
// stay quiet; a fourth with a seeded regression is flagged, and only it.
func TestTrendDriftAndQuiet(t *testing.T) {
	quiet := journals(
		histRec(1, "r-aaaaaaaa-1", map[string]float64{"qor.x.area": 100, "qor.x.delay": 2e-9}),
		histRec(2, "r-bbbbbbbb-2", map[string]float64{"qor.x.area": 100, "qor.x.delay": 2e-9}),
		histRec(3, "r-cccccccc-3", map[string]float64{"qor.x.area": 100, "qor.x.delay": 2e-9}),
	)
	rep := mustTrend(t, quiet, []string{"qor.*"}, 0)
	if rep.Drifting() != 0 {
		t.Errorf("identical reruns drifted: %+v", rep.Rows)
	}
	for _, row := range rep.Rows {
		if row.Verdict != qor.OK {
			t.Errorf("row %s verdict = %s, want ok", row.Metric, row.VerdictText)
		}
	}

	drifted := journals(quiet, histRec(4, "r-dddddddd-4",
		map[string]float64{"qor.x.area": 150, "qor.x.delay": 2e-9}))
	rep = mustTrend(t, drifted, []string{"qor.*"}, 0)
	if rep.Drifting() != 1 {
		t.Fatalf("drifting = %d, want 1: %+v", rep.Drifting(), rep.Rows)
	}
	byName := map[string]*TrendRow{}
	for i := range rep.Rows {
		byName[rep.Rows[i].Metric] = &rep.Rows[i]
	}
	area := byName["qor.x.area"]
	if area == nil || area.Verdict != qor.Regressed {
		t.Fatalf("qor.x.area row: %+v", area)
	}
	if area.DeltaPct != 50 {
		t.Errorf("delta = %g, want +50", area.DeltaPct)
	}
	if byName["qor.x.delay"].Verdict != qor.OK {
		t.Errorf("stable metric flagged: %+v", byName["qor.x.delay"])
	}

	// An improvement is drift too, just with the good sign.
	improved := journals(quiet, histRec(4, "r-eeeeeeee-4",
		map[string]float64{"qor.x.area": 50, "qor.x.delay": 2e-9}))
	rep = mustTrend(t, improved, []string{"qor.x.area"}, 0)
	if len(rep.Rows) != 1 || rep.Rows[0].Verdict != qor.Improved {
		t.Errorf("improvement rows: %+v", rep.Rows)
	}

	// Slack is higher-is-better: WNS sinking from +100 ps to +40 ps
	// regresses, WNS rising to +160 ps improves. Counters and stage times
	// keep lower-is-better.
	const wns = "qor.ctrl/p->d->a@4.2K.wns_seconds"
	slack := func(tns int64, run string, v float64) []obs.Event {
		return histRec(tns, run, map[string]float64{wns: v})
	}
	history := journals(slack(1, "r-1", 100e-12), slack(2, "r-2", 100e-12), slack(3, "r-3", 100e-12))
	for _, c := range []struct {
		latest float64
		want   qor.Verdict
	}{
		{40e-12, qor.Regressed},
		{160e-12, qor.Improved},
	} {
		rep = mustTrend(t, journals(history, slack(4, "r-4", c.latest)), []string{wns}, 0)
		if len(rep.Rows) != 1 || rep.Rows[0].Verdict != c.want {
			t.Errorf("WNS 100 ps -> %g ps: rows %+v, want %s", c.latest*1e12, rep.Rows, c.want)
		}
	}
}

// TestMedianIQR pins the history summary behind the drift rule.
func TestMedianIQR(t *testing.T) {
	median, iqr := medianIQR([]float64{4, 1, 3, 2})
	if math.Abs(median-2.5) > 1e-12 {
		t.Errorf("median = %g, want 2.5", median)
	}
	// q25 = 1.75, q75 = 3.25 with linear interpolation.
	if math.Abs(iqr-1.5) > 1e-12 {
		t.Errorf("IQR = %g, want 1.5", iqr)
	}
	if m, q := medianIQR([]float64{7}); m != 7 || q != 0 {
		t.Errorf("single sample: median %g, IQR %g", m, q)
	}
	if m, q := medianIQR(nil); m != 0 || q != 0 {
		t.Errorf("empty: median %g, IQR %g", m, q)
	}
}

func TestTrendNewMissingAndLast(t *testing.T) {
	recs := journals(
		histRec(3, "r-3", map[string]float64{"qor.old": 1}), // journals given out of order
		histRec(1, "r-1", map[string]float64{"qor.old": 1}),
		histRec(2, "r-2", map[string]float64{"qor.old": 1}),
		histRec(4, "r-4", map[string]float64{"qor.fresh": 9}),
	)
	rep := mustTrend(t, recs, []string{"qor.*"}, 0)
	if got := len(rep.Runs); got != 4 {
		t.Fatalf("runs = %d, want 4", got)
	}
	// Sorted by time, not input order.
	if rep.Runs[0].Run != "r-1" || rep.Runs[3].Run != "r-4" {
		t.Errorf("run order: %+v", rep.Runs)
	}
	byName := map[string]qor.Verdict{}
	for _, row := range rep.Rows {
		byName[row.Metric] = row.Verdict
	}
	if byName["qor.fresh"] != qor.New || byName["qor.old"] != qor.Missing {
		t.Errorf("verdicts: %+v", byName)
	}
	// Missing/New are informational, not drift.
	if rep.Drifting() != 0 {
		t.Errorf("drifting = %d, want 0", rep.Drifting())
	}

	// last=2 keeps only the newest two runs.
	rep = mustTrend(t, recs, []string{"qor.*"}, 2)
	if len(rep.Runs) != 2 || rep.Runs[0].Run != "r-3" || rep.Runs[1].Run != "r-4" {
		t.Errorf("last=2 runs: %+v", rep.Runs)
	}
}

func TestTrendRenderers(t *testing.T) {
	recs := journals(
		histRec(1, "r-aaaaaaaa-1", map[string]float64{"qor.x.area": 100}),
		histRec(2, "r-bbbbbbbb-2", map[string]float64{"qor.x.area": 150}),
	)
	rep := mustTrend(t, recs, []string{"qor.x.area"}, 0)

	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"qor.x.area", "r-aaaaaa", "r-bbbbbb", "100", "150", "+50.0", "REGRESSED", "1 metric(s) drifted"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text table missing %q:\n%s", want, text.String())
		}
	}

	var md strings.Builder
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	if !strings.Contains(md.String(), "| qor.x.area |") || !strings.Contains(md.String(), "|---|") {
		t.Errorf("markdown table malformed:\n%s", md.String())
	}

	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(js.String(), `"verdict": "REGRESSED"`) {
		t.Errorf("json missing verdict:\n%s", js.String())
	}
}

// loadLegacyCost loads a journal written while -cost still journaled a
// cost tree: besides run.start and run.end it carries "cost" events (a
// summary plus one node per span path).
func loadLegacyCost(t *testing.T) []obs.Event {
	t.Helper()
	evs, err := Load(filepath.Join("testdata", "legacy-cost.jsonl"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, e := range evs {
		if e.Kind == "cost" {
			return evs
		}
	}
	t.Fatal("fixture carries no cost events")
	return nil
}

// TestLegacyCostEventsIgnored: the post-mortem and Trend read a journal
// with legacy cost events and ignore them.
func TestLegacyCostEventsIgnored(t *testing.T) {
	evs := loadLegacyCost(t)
	pm := Build(evs)
	if len(pm.Runs) != 1 || !pm.Runs[0].Clean() || pm.Runs[0].Truncated() {
		t.Errorf("post-mortem of the legacy journal: %+v", pm.Runs)
	}
	var md bytes.Buffer
	if err := pm.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(md.String(), "cost report") || strings.Contains(md.String(), "synth.compare") {
		t.Errorf("post-mortem rendered legacy cost payloads:\n%s", &md)
	}

	rep := mustTrend(t, evs, []string{"*"}, 0)
	if len(rep.Runs) != 1 || len(rep.Rows) == 0 {
		t.Fatalf("trend over the legacy journal: %d runs, %d rows", len(rep.Runs), len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if strings.HasPrefix(r.Metric, "cost.") {
			t.Errorf("trend row %q from a legacy cost event", r.Metric)
		}
	}
}

// TestFlattenRecordCostColumns: legacy cost events contribute no cost.*
// columns, while the summary's stage and process-health columns stay.
func TestFlattenRecordCostColumns(t *testing.T) {
	evs := loadLegacyCost(t)
	flat, err := FlattenRecord(evs, evs[0].Run)
	if err != nil {
		t.Fatalf("FlattenRecord: %v", err)
	}
	for k := range flat {
		if strings.HasPrefix(k, "cost.") {
			t.Errorf("legacy cost event surfaced as column %q", k)
		}
	}
	want := map[string]float64{
		"stage.synth.c2rs":               0.006116,
		"sat.solves":                     153,
		"runtime.peak_rss_bytes":         27357184,
		"runtime.gc_pause_total_seconds": 0.000544,
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("flat[%q] = %g, want %g", k, flat[k], v)
		}
	}
}

// TestTrendShowsRevision: each column carries the VCS revision its
// run.start recorded, in the text, markdown and JSON renderings; a
// journal without revisions (the legacy fixture) renders byte-identically
// to its golden table, with no rev row.
func TestTrendShowsRevision(t *testing.T) {
	a := histRec(1, "r-aaaaaaaa-1", map[string]float64{"qor.x.area": 100})
	b := histRec(2, "r-bbbbbbbb-2", map[string]float64{"qor.x.area": 100})
	a[0].Attrs = map[string]string{"bin": "cryobench", "vcs.revision": "1111111111aaaaaaaaaa", "vcs.modified": "false"}
	b[0].Attrs = map[string]string{"bin": "cryobench", "vcs.revision": "2222222222bbbbbbbbbb", "vcs.modified": "true"}
	rep := mustTrend(t, journals(a, b), []string{"qor.*"}, 0)

	var text, md, js strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"11111111 ", "22222222*"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text table missing revision %q:\n%s", want, &text)
		}
	}
	if !strings.Contains(md.String(), "| rev | 11111111 | 22222222* |") {
		t.Errorf("markdown table missing the rev row:\n%s", &md)
	}
	for _, want := range []string{`"rev": "1111111111aaaaaaaaaa"`, `"rev": "2222222222bbbbbbbbbb*"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json missing %s:\n%s", want, &js)
		}
	}

	legacy := mustTrend(t, loadLegacyCost(t), []string{"*"}, 0)
	var got strings.Builder
	if err := legacy.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy-cost.trend.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(golden) {
		t.Errorf("legacy trend table changed:\ngot:\n%s\nwant:\n%s", &got, golden)
	}
}
