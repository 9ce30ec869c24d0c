package forensics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/spice"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureEvents builds a deterministic two-run event stream: a cryochar run
// with a recurring SPICE nonconvergence failure, and a truncated cryobench
// run (no run.end — the crash signature).
func fixtureEvents(t *testing.T) []obs.Event {
	t.Helper()
	const t0 = int64(1700000000000000000)
	diag := spice.Diagnosis{
		Phase:     spice.PhaseGminLadder,
		TempK:     4,
		Gmin:      1e-6,
		Iters:     2,
		WorstNode: "x1.Y",
		Residual:  3.2e-4,
		MaxDV:     0.41,
		Devices: []spice.DeviceResidual{
			{Device: "x1.Y.N1(A)", Residual: 2.9e-4},
			{Device: "x1.Y.P2(A)", Residual: 1.1e-4},
		},
	}
	raw, err := json.Marshal(diag)
	if err != nil {
		t.Fatal(err)
	}
	failAttrs := map[string]string{
		"cell": "INVx1", "arc": "A->Y", "slew": "5e-12", "load": "1e-15",
		"temp_k": "4", "worst_node": "x1.Y", "phase": spice.PhaseGminLadder,
		"worst_device": "x1.Y.N1(A)",
	}
	const runA, runB = "r-aaaaaaaaaaaa", "r-bbbbbbbbbbbb"
	return []obs.Event{
		{Seq: 1, TNs: t0, Run: runA, Kind: obs.KindRunStart,
			Msg: "cryochar -temp 4 -journal a.jsonl", Attrs: map[string]string{"bin": "cryochar"}},
		{Seq: 2, TNs: t0 + 1e9, Run: runA, Kind: obs.KindProgress, Stage: "charlib.cells",
			Attrs: map[string]string{"done": "1", "total": "2"}},
		{Seq: 3, TNs: t0 + 2e9, Run: runA, Kind: obs.KindFailure, Stage: "charlib.arc",
			Msg: "newton failed", Attrs: failAttrs, Detail: raw},
		{Seq: 4, TNs: t0 + 3e9, Run: runA, Kind: obs.KindFailure, Stage: "charlib.arc",
			Msg: "newton failed", Attrs: failAttrs, Detail: raw},
		{Seq: 5, TNs: t0 + 4e9, Run: runA, Kind: obs.KindWarning, Stage: "charlib",
			Msg: "slow corner"},
		{Seq: 6, TNs: t0 + 5e9, Run: runA, Kind: obs.KindProgress, Stage: "charlib.cells",
			Attrs: map[string]string{"done": "2", "total": "2"}},
		{Seq: 7, TNs: t0 + 6e9, Run: runA, Kind: obs.KindArtifact, Stage: "charlib.cache",
			Attrs: map[string]string{"path": "build/cryolib_4K.lib", "bytes": "1234",
				"sha256": "deadbeefdeadbeefdeadbeef"}},
		{Seq: 8, TNs: t0 + 7e9, Run: runA, Kind: obs.KindRunEnd, Msg: "run complete"},
		// Interleaved truncated run from another binary.
		{Seq: 1, TNs: t0 + 1500000000, Run: runB, Kind: obs.KindRunStart,
			Msg: "cryobench -profile smoke", Attrs: map[string]string{"bin": "cryobench"}},
		{Seq: 2, TNs: t0 + 2500000000, Run: runB, Kind: obs.KindProgress, Stage: "qor.reps",
			Attrs: map[string]string{"done": "1", "total": "3"}},
	}
}

func TestPostMortemGolden(t *testing.T) {
	evs := fixtureEvents(t)
	Sort(evs)
	rep := Build(evs)
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "postmortem.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, md.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(md.Bytes(), want) {
		t.Errorf("markdown drifted from golden (re-run with -update and review):\n--- got ---\n%s", md.String())
	}
}

func TestBuildDigestsRuns(t *testing.T) {
	evs := fixtureEvents(t)
	Sort(evs)
	rep := Build(evs)
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	a := &rep.Runs[0]
	if a.Bin != "cryochar" || a.Clean() || a.Truncated() {
		t.Errorf("run A digest wrong: %+v", a)
	}
	if len(a.Failures) != 1 || a.Failures[0].Count != 2 {
		t.Fatalf("failure grouping wrong: %+v", a.Failures)
	}
	site := &a.Failures[0]
	if site.Cell != "INVx1" || site.Arc != "A->Y" || site.Diag == nil {
		t.Errorf("failure site lost context: %+v", site)
	}
	if len(a.Devices) == 0 || a.Devices[0].Device != "x1.Y.N1(A)" || a.Devices[0].Count != 2 {
		t.Errorf("device ranking wrong: %+v", a.Devices)
	}
	if len(a.Nodes) == 0 || a.Nodes[0].Node != "x1.Y" {
		t.Errorf("node ranking wrong: %+v", a.Nodes)
	}
	if len(a.Artifacts) != 1 || a.Artifacts[0].Path != "build/cryolib_4K.lib" {
		t.Errorf("artifact record wrong: %+v", a.Artifacts)
	}
	b := &rep.Runs[1]
	if b.Bin != "cryobench" || !b.Truncated() {
		t.Errorf("run B should be a truncated cryobench run: %+v", b)
	}
	if rep.TotalFailures() != 2 {
		t.Errorf("TotalFailures = %d, want 2", rep.TotalFailures())
	}
}

func TestLoadMergesFiles(t *testing.T) {
	evs := fixtureEvents(t)
	dir := t.TempDir()
	// Split the stream by run into two journal files, as two binaries of one
	// flow invocation would write them.
	var fa, fb bytes.Buffer
	for _, e := range evs {
		enc := json.NewEncoder(&fa)
		if e.Run == "r-bbbbbbbbbbbb" {
			enc = json.NewEncoder(&fb)
		}
		if err := enc.Encode(&e); err != nil {
			t.Fatal(err)
		}
	}
	pa := filepath.Join(dir, "a.jsonl")
	pb := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(pa, fa.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, fb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	merged, err := Load(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(evs) {
		t.Fatalf("merged %d events, want %d", len(merged), len(evs))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].TNs < merged[i-1].TNs {
			t.Fatalf("merge not time-ordered at %d: %d < %d", i, merged[i].TNs, merged[i-1].TNs)
		}
	}
	// The two runs must interleave — the truncated run starts mid-way
	// through the first.
	if merged[1].Run != "r-aaaaaaaaaaaa" || merged[2].Run != "r-bbbbbbbbbbbb" {
		t.Errorf("runs did not interleave: %s then %s", merged[1].Run, merged[2].Run)
	}
}

func TestSummaryAndTail(t *testing.T) {
	evs := fixtureEvents(t)
	Sort(evs)
	var sum bytes.Buffer
	if err := Build(evs).WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	s := sum.String()
	for _, want := range []string{"FAILED", "TRUNCATED", "cryochar", "cryobench", "cell=INVx1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	var line bytes.Buffer
	fails := FilterKind(evs, obs.KindFailure)
	if len(fails) != 2 {
		t.Fatalf("FilterKind found %d failures, want 2", len(fails))
	}
	if err := WriteEvent(&line, &fails[0]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"failure", "charlib.arc", "cell=INVx1", "worst_node=x1.Y"} {
		if !strings.Contains(line.String(), want) {
			t.Errorf("tail line missing %q: %s", want, line.String())
		}
	}
}

// TestLegacyCostEventsIgnored: a journal written while -cost still
// journaled a cost tree, and while run.end still carried a run summary as
// its detail, loads; the post-mortem ignores the cost events and the
// summary and reads the run as cleanly ended.
func TestLegacyCostEventsIgnored(t *testing.T) {
	evs, err := Load(filepath.Join("testdata", "legacy-cost.jsonl"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var cost, summary bool
	for _, e := range evs {
		cost = cost || e.Kind == "cost"
		summary = summary || (e.Kind == obs.KindRunEnd && len(e.Detail) > 0)
	}
	if !cost || !summary {
		t.Fatalf("fixture lacks legacy payloads: cost events %v, run.end summary %v", cost, summary)
	}
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
}
