package forensics

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// costFixtureReport builds a small three-node tree with every dimension
// populated, as BuildCostReport would emit it.
func costFixtureReport() *obs.CostReport {
	return &obs.CostReport{
		WindowSec: 2.5, ProcessCPUSec: 1.8, ProfiledCPUSec: 1.6, CPUAttributed: true,
		Roots: []*obs.CostNode{{
			Name: "flow", Path: "flow", Count: 1, WallSec: 2.4,
			CPUSec: 1.5, SelfCPUSec: 0.1, AllocBytes: 9000, SelfAllocBytes: 1000,
			Children: []*obs.CostNode{
				{
					Name: "charlib", Path: "flow/charlib", Count: 4, WallSec: 2,
					CPUSec: 1.4, SelfCPUSec: 1.4, AllocBytes: 8000, SelfAllocBytes: 8000,
					GCCPUSec: 0.2, SelfGCCPUSec: 0.2,
					Counters:     map[string]int64{"spice.solver.factor": 33},
					SelfCounters: map[string]int64{"spice.solver.factor": 33},
				},
				{Name: "report", Path: "flow/report", Count: 1, WallSec: 0.1},
			},
		}},
	}
}

// TestCostJournalRoundTrip: JournalCost → journal lines → ReadJournal →
// CostFromEvents must reproduce the tree shape and every value the journal
// carries.
func TestCostJournalRoundTrip(t *testing.T) {
	var sink strings.Builder
	j := obs.NewJournal(&sink, "r-roundtrip")
	costFixtureReport().JournalCost(j)
	j.Close()

	evs, err := obs.ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	rep, err := CostFromEvents(evs, "")
	if err != nil {
		t.Fatalf("CostFromEvents: %v", err)
	}
	if rep.WindowSec != 2.5 || rep.ProcessCPUSec != 1.8 || rep.ProfiledCPUSec != 1.6 || !rep.CPUAttributed {
		t.Errorf("summary lost: %+v", rep)
	}
	if len(rep.Roots) != 1 || rep.Roots[0].Path != "flow" {
		t.Fatalf("roots: %+v", rep.Roots)
	}
	flow := rep.Roots[0]
	if len(flow.Children) != 2 {
		t.Fatalf("flow children: %+v", flow.Children)
	}
	char := flow.Children[0]
	if char.Path != "flow/charlib" || char.Count != 4 || char.SelfCPUSec != 1.4 ||
		char.SelfAllocBytes != 8000 || char.SelfGCCPUSec != 0.2 {
		t.Errorf("charlib node lost values: %+v", char)
	}
	if char.Counters["spice.solver.factor"] != 33 {
		t.Errorf("charlib counters lost: %v", char.Counters)
	}
	if flow.Children[1].Path != "flow/report" {
		t.Errorf("child order lost: %+v", flow.Children[1])
	}

	// An explicit wrong run must fail loudly.
	if _, err := CostFromEvents(evs, "no-such-run"); err == nil {
		t.Error("CostFromEvents accepted a run with no cost events")
	}
}

// TestCostFromEventsOrphan: a node event whose parent never made it into
// the journal (truncated file) becomes a root instead of vanishing.
func TestCostFromEventsOrphan(t *testing.T) {
	var sink strings.Builder
	j := obs.NewJournal(&sink, "r-orphan")
	costFixtureReport().JournalCost(j)
	j.Close()
	evs, err := obs.ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Drop the "flow" node event, keeping the summary and the children.
	var cut []obs.Event
	for _, e := range evs {
		if e.Kind == obs.KindCost && e.Stage == "flow" {
			continue
		}
		cut = append(cut, e)
	}
	rep, err := CostFromEvents(cut, "")
	if err != nil {
		t.Fatalf("CostFromEvents: %v", err)
	}
	if len(rep.Roots) != 2 {
		t.Fatalf("orphaned children should become roots: %+v", rep.Roots)
	}
}

// TestCostFromEventsStageCosts pins the trend's cost.* columns to the
// report's own rollup: the per-stage costs rebuilt from a journal's cost
// events must equal StageCosts of the report that emitted them.
func TestCostFromEventsStageCosts(t *testing.T) {
	orig := costFixtureReport()
	var sink strings.Builder
	j := obs.NewJournal(&sink, "r-stage")
	orig.JournalCost(j)
	j.Close()
	evs, err := obs.ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	rep, err := CostFromEvents(evs, "r-stage")
	if err != nil {
		t.Fatalf("CostFromEvents: %v", err)
	}
	got, want := rep.StageCosts(), orig.StageCosts()
	if len(want) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("stage costs from events:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlattenRecordCostColumns: trend flattening surfaces the cost columns
// rebuilt from the run's cost events and the summary's process-health
// columns, omitting zero dimensions.
func TestFlattenRecordCostColumns(t *testing.T) {
	var sink strings.Builder
	j := obs.NewJournal(&sink, "r-cost")
	(&obs.CostReport{Roots: []*obs.CostNode{{
		Name: "charlib.cell", Path: "charlib.cell", Count: 1,
		SelfCPUSec: 1.5, WallSec: 2, SelfAllocBytes: 64,
	}}}).JournalCost(j)
	j.EventDetail(obs.KindRunEnd, "", "", nil, &obs.RunSummary{
		PeakRSSBytes:    2048,
		GCPauseTotalSec: 0.25,
	})
	j.Close()
	evs, err := obs.ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	flat, err := FlattenRecord(evs, "r-cost")
	if err != nil {
		t.Fatalf("FlattenRecord: %v", err)
	}
	want := map[string]float64{
		"cost.charlib.cell.self_cpu_seconds": 1.5,
		"cost.charlib.cell.wall_seconds":     2,
		"cost.charlib.cell.self_alloc_bytes": 64,
		"runtime.peak_rss_bytes":             2048,
		"runtime.gc_pause_total_seconds":     0.25,
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("flat[%q] = %g, want %g", k, flat[k], v)
		}
	}
	if _, ok := flat["cost.charlib.cell.self_alloc_objects"]; ok {
		t.Error("zero dimension should be omitted from trend columns")
	}
}
