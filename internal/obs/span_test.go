package obs

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func freshTracer(t *testing.T) *Tracer {
	t.Helper()
	DisableTracing()
	tr := EnableTracing()
	t.Cleanup(DisableTracing)
	return tr
}

func TestSpanTreeNesting(t *testing.T) {
	tr := freshTracer(t)
	ctx := context.Background()
	ctx, root := Start(ctx, "flow")
	root.SetAttr("tool", "test")
	cctx, char := Start(ctx, "characterize")
	_, cell := Start(cctx, "cell")
	cell.End()
	char.End()
	_, synth := Start(ctx, "synth")
	synth.SetAttr("nodes", 42)
	synth.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "flow" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "characterize" || kids[1].Name() != "synth" {
		t.Fatalf("flow children wrong: %d", len(kids))
	}
	grand := kids[0].Children()
	if len(grand) != 1 || grand[0].Name() != "cell" {
		t.Fatalf("characterize children wrong")
	}
	if d := roots[0].Duration(); d <= 0 {
		t.Fatalf("root duration = %v", d)
	}

	totals := tr.Totals()
	if totals["cell"].Count != 1 || totals["flow"].Count != 1 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestSpanDisabled(t *testing.T) {
	DisableTracing()
	ctx := context.Background()
	ctx2, s := Start(ctx, "nothing")
	if s != nil {
		t.Fatal("disabled Start returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	s.End()           // must not panic
	s.SetAttr("k", 1) // must not panic
	if FromContext(ctx2) != nil {
		t.Fatal("disabled context carries a span")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := freshTracer(t)
	ctx, root := Start(context.Background(), "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := Start(ctx, "worker")
			time.Sleep(time.Millisecond)
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(tr.Roots()[0].Children()); got != 32 {
		t.Fatalf("children = %d, want 32", got)
	}
	if tr.Totals()["worker"].Count != 32 {
		t.Fatalf("totals wrong")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := freshTracer(t)
	ctx, root := Start(context.Background(), "flow")
	// Two overlapping children (parallel workers) plus one nested child.
	c1ctx, c1 := Start(ctx, "worker")
	_, n := Start(c1ctx, "inner")
	time.Sleep(2 * time.Millisecond)
	n.End()
	_, c2 := Start(ctx, "worker")
	time.Sleep(time.Millisecond)
	c1.End()
	c2.End()
	root.End()

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace output is not valid trace_event JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	byName := map[string][]int{}
	for i, e := range events {
		if e.Ph != "X" {
			t.Errorf("event %d: ph = %q, want X", i, e.Ph)
		}
		if e.Dur < 0 || e.Ts < 0 {
			t.Errorf("event %d: negative ts/dur", i)
		}
		if e.Pid != 1 {
			t.Errorf("event %d: pid = %d", i, e.Pid)
		}
		byName[e.Name] = append(byName[e.Name], i)
	}
	if len(byName["worker"]) != 2 || len(byName["flow"]) != 1 || len(byName["inner"]) != 1 {
		t.Fatalf("event names wrong: %v", byName)
	}
	// Containment: every child's [ts, ts+dur] within the root's window.
	rootEv := events[byName["flow"][0]]
	const slack = 500.0 // microseconds of scheduling tolerance
	for _, idx := range append(byName["worker"], byName["inner"]...) {
		e := events[idx]
		if e.Ts+slack < rootEv.Ts || e.Ts+e.Dur > rootEv.Ts+rootEv.Dur+slack {
			t.Errorf("event %s not contained in root window", e.Name)
		}
	}
	// Overlapping siblings must land on different lanes.
	w0, w1 := events[byName["worker"][0]], events[byName["worker"][1]]
	overlap := w0.Ts < w1.Ts+w1.Dur && w1.Ts < w0.Ts+w0.Dur
	if overlap && w0.Tid == w1.Tid {
		t.Errorf("overlapping sibling spans share tid %d", w0.Tid)
	}
}

// TestSpanPathLateEnable: spans opened before -cost came on still produce
// correctly nested label paths for their descendants.
func TestSpanPathLateEnable(t *testing.T) {
	freshTracer(t)
	defer StopCost()
	ctx, outer := Start(context.Background(), "early")
	defer outer.End()
	if err := EnableCost(io.Discard); err != nil {
		t.Fatalf("EnableCost: %v", err)
	}
	_, inner := Start(ctx, "late")
	if inner.path != "early/late" {
		t.Errorf("late-enable path = %q, want early/late", inner.path)
	}
	inner.End()
}
