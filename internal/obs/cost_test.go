package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// resetCostState tears down every subsystem a cost test may have enabled.
func resetCostState() {
	DisableCost()
	DisableTracing()
	DisableMetrics()
}

// burnCPU spins for roughly d so the 100 Hz CPU profiler can land samples
// on the calling goroutine's current labels.
func burnCPU(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			x = x*1.000001 + 1
		}
	}
	_ = x
}

// TestCostAttribution drives the whole capture end to end: nested spans, a
// worker goroutine spawned inside a child span (label inheritance), engine
// counters bumped inside one child — then checks the tree shape, the
// counter deltas landing on the right subtree and not its sibling, and
// (when the profiler sampled at all) CPU landing under the labeled path.
func TestCostAttribution(t *testing.T) {
	resetCostState()
	defer resetCostState()
	EnableCost()
	if !CostEnabled() {
		t.Fatal("EnableCost did not enable cost attribution")
	}

	ctx, root := Start(context.Background(), "flow")
	_, char := Start(ctx, "charlib")
	C("spice.solver.factor").Add(104)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // inherits charlib's goroutine labels
		defer wg.Done()
		burnCPU(150 * time.Millisecond)
	}()
	wg.Wait()
	char.End()
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	FinalizeCost()
	rep := BuildCostReport(false)
	if rep == nil {
		t.Fatal("BuildCostReport returned nil while cost is enabled")
	}
	if len(rep.Roots) == 0 {
		t.Fatal("cost report has no roots")
	}
	var flow *CostNode
	for _, r := range rep.Roots {
		if r.Name == "flow" {
			flow = r
		}
	}
	if flow == nil {
		t.Fatalf("no 'flow' root in %+v", rep.Roots)
	}
	var charNode, sibNode *CostNode
	for _, c := range flow.Children {
		switch c.Name {
		case "charlib":
			charNode = c
		case "sibling":
			sibNode = c
		}
	}
	if charNode == nil || sibNode == nil {
		t.Fatalf("flow children missing: %+v", flow.Children)
	}

	// Counter deltas must land on the charlib subtree, not its sibling.
	if got := charNode.Counters["spice.solver.factor"]; got != 104 {
		t.Errorf("charlib spice.solver.factor = %d, want 104", got)
	}
	if got := sibNode.Counters["spice.solver.factor"]; got != 0 {
		t.Errorf("sibling stole spice.solver.factor = %d, want 0", got)
	}
	if got := flow.Counters["spice.solver.factor"]; got != 104 {
		t.Errorf("flow rollup spice.solver.factor = %d, want 104", got)
	}
	// flow itself incremented nothing: its self counter must be empty.
	if got := flow.SelfCounters["spice.solver.factor"]; got != 0 {
		t.Errorf("flow self counter = %d, want 0", got)
	}
	if charNode.WallSec < 0.1 {
		t.Errorf("charlib wall = %gs, want >= 0.1s", charNode.WallSec)
	}
	if flow.WallSec < charNode.WallSec {
		t.Errorf("flow wall %g < charlib wall %g", flow.WallSec, charNode.WallSec)
	}

	if rep.ProfiledCPUSec == 0 {
		t.Log("profiler landed no samples; skipping CPU attribution checks")
		return
	}
	if !rep.CPUAttributed {
		t.Fatal("profile ran but CPUAttributed is false")
	}
	// The worker goroutine inherited flow/charlib labels, so the burn must
	// be attributed under charlib, and the tree total must carry most of the
	// profiled CPU (the acceptance bound is 10% on a real flow; here we only
	// require the burn to dominate).
	if charNode.CPUSec < flow.CPUSec/2 {
		t.Errorf("charlib CPU %gs < half of flow CPU %gs", charNode.CPUSec, flow.CPUSec)
	}
	if flow.CPUSec <= 0 {
		t.Errorf("flow total CPU = %g, want > 0", flow.CPUSec)
	}
	if rep.ProcessCPUSec <= 0 {
		t.Errorf("process CPU = %g, want > 0", rep.ProcessCPUSec)
	}
}

// TestCostSurvivesTracerReset pins the fold-at-End design: cryobench swaps
// tracers per repetition, and costs folded before the swap must still be in
// the report.
func TestCostSurvivesTracerReset(t *testing.T) {
	resetCostState()
	defer resetCostState()
	EnableCost()

	_, s1 := Start(context.Background(), "rep")
	s1.End()
	ResetTracing()
	_, s2 := Start(context.Background(), "rep")
	s2.End()

	rep := BuildCostReport(false)
	var node *CostNode
	for _, r := range rep.Roots {
		if r.Path == "rep" {
			node = r
		}
	}
	if node == nil {
		t.Fatalf("no 'rep' root: %+v", rep.Roots)
	}
	if node.Count != 2 {
		t.Errorf("rep count = %d, want 2 (fold must survive ResetTracing)", node.Count)
	}
}

// TestCostIncludeLive: an open span only appears when live folding is
// requested (the /costs endpoint and flush want provisional numbers).
func TestCostIncludeLive(t *testing.T) {
	resetCostState()
	defer resetCostState()
	EnableCost()

	_, open := Start(context.Background(), "live.root")
	defer open.End()

	rep := BuildCostReport(false)
	for _, r := range rep.Roots {
		if r.Path == "live.root" {
			t.Errorf("open span folded without includeLive: %+v", r)
		}
	}
	rep = BuildCostReport(true)
	found := false
	for _, r := range rep.Roots {
		if r.Path == "live.root" {
			found = true
			if r.Count != 1 {
				t.Errorf("live fold count = %d, want 1", r.Count)
			}
		}
	}
	if !found {
		t.Error("includeLive did not fold the open span")
	}
}

// TestStageCosts checks the per-name history rollup stays additive (self
// costs only) and keys by name, not path.
func TestStageCosts(t *testing.T) {
	rep := &CostReport{Roots: []*CostNode{{
		Name: "flow", Path: "flow", Count: 1, SelfCPUSec: 0.5, WallSec: 2,
		Children: []*CostNode{
			{Name: "stage", Path: "flow/stage", Count: 3, SelfCPUSec: 1, WallSec: 1, SelfAllocBytes: 100},
			{Name: "stage", Path: "flow/other/stage", Count: 1, SelfCPUSec: 0.25, WallSec: 0.5, SelfAllocBytes: 50},
		},
	}}}
	sc := rep.StageCosts()
	if got := sc["stage"]; got.SelfCPUSec != 1.25 || got.SelfAllocBytes != 150 || got.WallSec != 1.5 {
		t.Errorf("stage cost = %+v, want self cpu 1.25, bytes 150, wall 1.5", got)
	}
	if got := sc["flow"]; got.SelfCPUSec != 0.5 {
		t.Errorf("flow cost = %+v", got)
	}
}

// TestCostFlagLifecycle drives the -cost flag end to end: Activate enables
// capture, Flush finalizes, writes the report file, emits journal cost
// events exactly once, and stamps peak RSS + GC pause into the run.end
// summary that follows them.
func TestCostFlagLifecycle(t *testing.T) {
	resetCostState()
	defer resetCostState()
	var sink journalSink
	prev := SetJournal(NewJournal(&sink, "r-cost"))
	defer func() { SetJournal(prev).Close() }()

	dir := t.TempDir()
	costPath := filepath.Join(dir, "cost.txt")
	// The in-memory journal installed above stays the global one: Activate
	// keeps an enabled journal, so JournalPath only turns on run.end.
	f := &Flags{CostPath: costPath, JournalPath: filepath.Join(dir, "unused.jsonl")}
	flush, err := f.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if !CostEnabled() || !MetricsEnabled() || Tracing() == nil {
		t.Fatal("-cost must enable cost, metrics, and tracing")
	}

	ctx, root := Start(context.Background(), "lifecycle")
	_, child := Start(ctx, "lifecycle.child")
	C("lifecycle.counter").Add(3)
	child.End()
	root.End()

	flush()
	flush() // must not double-journal

	data, err := os.ReadFile(costPath)
	if err != nil {
		t.Fatalf("cost report file: %v", err)
	}
	if !strings.Contains(string(data), "lifecycle.child") {
		t.Errorf("cost report missing span row:\n%s", data)
	}

	J().Sync()
	evs, err := ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	var summaries, nodes int
	var childNode bool
	var ends []Event
	for _, e := range evs {
		switch {
		case e.Kind == KindRunEnd:
			ends = append(ends, e)
		case e.Kind != KindCost:
		case len(e.Detail) == 0:
			summaries++
		default:
			nodes++
			childNode = childNode || e.Stage == "lifecycle.child"
		}
	}
	if summaries != 1 {
		t.Errorf("got %d cost summary events after double flush, want 1", summaries)
	}
	if nodes < 2 {
		t.Errorf("got %d cost node events, want >= 2 (lifecycle + child)", nodes)
	}

	if !childNode {
		t.Error("no cost node event for lifecycle.child")
	}
	if len(ends) != 1 || ends[0].Seq < evs[len(evs)-1].Seq {
		t.Fatalf("want one run.end after the cost events, got %d", len(ends))
	}
	var sum RunSummary
	if err := json.Unmarshal(ends[0].Detail, &sum); err != nil {
		t.Fatalf("run.end summary: %v", err)
	}
	if sum.PeakRSSBytes == 0 {
		t.Errorf("run summary missing peak RSS")
	}
	if sum.GCPauseTotalSec < 0 {
		t.Errorf("negative GC pause total: %g", sum.GCPauseTotalSec)
	}
}

// TestCostRenderers smoke-tests the three renderers on a synthetic tree,
// including counter-glob filtering.
func TestCostRenderers(t *testing.T) {
	rep := &CostReport{
		WindowSec: 1, ProcessCPUSec: 0.8, ProfiledCPUSec: 0.7, CPUAttributed: true,
		Roots: []*CostNode{{
			Name: "flow", Path: "flow", Count: 1, WallSec: 1, CPUSec: 0.7, SelfCPUSec: 0.1,
			AllocBytes: 4096,
			Children: []*CostNode{{
				Name: "spice", Path: "flow/spice", Count: 9, WallSec: 0.9, CPUSec: 0.6, SelfCPUSec: 0.6,
				SelfCounters: map[string]int64{"spice.solver.factor": 42, "unrelated.counter": 7},
			}},
		}},
	}
	var text strings.Builder
	if err := rep.WriteText(&text, CostRenderOptions{}); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(text.String(), "spice.solver.factor +42") {
		t.Errorf("text missing engine counter:\n%s", text.String())
	}
	if strings.Contains(text.String(), "unrelated.counter") {
		t.Errorf("default globs leaked a non-engine counter:\n%s", text.String())
	}
	var md strings.Builder
	if err := rep.WriteMarkdown(&md, CostRenderOptions{CounterGlobs: []string{"*"}}); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	if !strings.Contains(md.String(), "| span |") || !strings.Contains(md.String(), "unrelated.counter +7") {
		t.Errorf("markdown table malformed:\n%s", md.String())
	}
	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back CostReport
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back.Roots) != 1 || back.Roots[0].Children[0].Path != "flow/spice" {
		t.Errorf("JSON round trip lost tree shape: %+v", back.Roots)
	}
}

// TestQuantileEdgeCases pins Histogram.Quantile's boundary behavior: empty
// histogram, single observation, and the q=0 / q=1 extremes.
func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge")
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %g, want 0", got)
	}
	h.Observe(3.25)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 3.25 {
			t.Errorf("single-obs Quantile(%g) = %g, want 3.25", q, got)
		}
	}
	h.Observe(1.5)
	h.Observe(9)
	if got := h.Quantile(0); got != 1.5 {
		t.Errorf("Quantile(0) = %g, want min 1.5", got)
	}
	if got := h.Quantile(-0.3); got != 1.5 {
		t.Errorf("Quantile(-0.3) = %g, want min 1.5", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %g, want max 9", got)
	}
	if got := h.Quantile(2); got != 9 {
		t.Errorf("Quantile(2) = %g, want max 9", got)
	}
	if got := h.Quantile(0.5); got < 1.5 || got > 9 {
		t.Errorf("Quantile(0.5) = %g, outside observed range", got)
	}
}

// TestConcurrentCostExport serves /spans and /costs from the live mux while
// spans (with cost capture on) start and end concurrently; run under -race.
// Correctness is "no race, no panic, valid JSON with enabled=true".
func TestConcurrentCostExport(t *testing.T) {
	resetCostState()
	defer resetCostState()
	EnableCost()
	mux := obsMux()

	done := make(chan struct{})
	var exportWg sync.WaitGroup
	exportWg.Add(1)
	go func() {
		defer exportWg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rw := httptest.NewRecorder()
			mux.ServeHTTP(rw, httptest.NewRequest("GET", "/costs", nil))
			var payload struct {
				Enabled bool        `json:"enabled"`
				Report  *CostReport `json:"report"`
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &payload); err != nil {
				t.Errorf("/costs not valid JSON: %v\n%s", err, rw.Body.String())
				return
			}
			if !payload.Enabled || payload.Report == nil {
				t.Error("/costs reports disabled while cost capture is on")
				return
			}
			rw = httptest.NewRecorder()
			mux.ServeHTTP(rw, httptest.NewRequest("GET", "/spans", nil))
		}
	}()

	var spanWg sync.WaitGroup
	for w := 0; w < 4; w++ {
		spanWg.Add(1)
		go func(w int) {
			defer spanWg.Done()
			for i := 0; i < 50; i++ {
				ctx, outer := Start(context.Background(), "cost.outer")
				_, inner := Start(ctx, "cost.inner")
				C("cost.test.counter").Inc()
				inner.End()
				outer.End()
			}
		}(w)
	}
	spanWg.Wait()
	close(done)
	exportWg.Wait()

	rep := BuildCostReport(true)
	var outer *CostNode
	for _, r := range rep.Roots {
		if r.Path == "cost.outer" {
			outer = r
		}
	}
	if outer == nil || outer.Count != 200 {
		t.Fatalf("cost.outer fold incomplete: %+v", outer)
	}
	if len(outer.Children) != 1 || outer.Children[0].Count != 200 {
		t.Errorf("cost.inner fold incomplete: %+v", outer.Children)
	}
	if got := outer.Counters["cost.test.counter"]; got != 200 {
		t.Errorf("rolled-up counter = %d, want 200", got)
	}
}

// TestSpanPathLateEnable: spans opened before cost capture came on still
// produce correctly nested paths for their descendants.
func TestSpanPathLateEnable(t *testing.T) {
	resetCostState()
	defer resetCostState()
	EnableTracing()
	ctx, outer := Start(context.Background(), "early")
	defer outer.End()
	EnableCost()
	_, inner := Start(ctx, "late")
	if inner.path != "early/late" {
		t.Errorf("late-enable path = %q, want early/late", inner.path)
	}
	inner.End()
}
