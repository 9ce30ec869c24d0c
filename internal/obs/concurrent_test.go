package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestConcurrentSpanExport hammers the tracer from many goroutines — each
// opening nested spans with attributes — while other goroutines export the
// forest as Chrome trace JSON and span totals mid-flight. Run under
// -race (the Makefile race target includes this package); afterwards every
// span must appear exactly once in the final export.
func TestConcurrentSpanExport(t *testing.T) {
	defer DisableTracing()
	tr := ResetTracing()

	const workers = 8
	const spansPerWorker = 50
	var wg sync.WaitGroup
	exportDone := make(chan struct{})

	// Exporters racing with span creation: correctness here is "no race,
	// no panic, valid JSON", not a particular span count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-exportDone:
				return
			default:
			}
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Errorf("concurrent WriteChromeTrace: %v", err)
				return
			}
			var events []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
				t.Errorf("mid-flight trace is not valid JSON: %v", err)
				return
			}
			tr.Totals()
		}
	}()

	var spanWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spanWg.Add(1)
		go func(w int) {
			defer spanWg.Done()
			for i := 0; i < spansPerWorker; i++ {
				ctx, outer := Start(context.Background(), "worker.outer")
				outer.SetAttr("worker", w)
				_, inner := Start(ctx, "worker.inner")
				inner.SetAttr("i", i)
				inner.End()
				outer.End()
			}
		}(w)
	}
	spanWg.Wait()
	close(exportDone)
	wg.Wait()

	totals := tr.Totals()
	wantEach := workers * spansPerWorker
	if got := totals["worker.outer"].Count; got != wantEach {
		t.Errorf("worker.outer count = %d, want %d", got, wantEach)
	}
	if got := totals["worker.inner"].Count; got != wantEach {
		t.Errorf("worker.inner count = %d, want %d", got, wantEach)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("final WriteChromeTrace: %v", err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("final trace JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Name]++
	}
	if counts["worker.outer"] != wantEach || counts["worker.inner"] != wantEach {
		t.Errorf("exported span counts = %v, want %d each", counts, wantEach)
	}
}

// TestDetach verifies that a detached context opens root spans rather than
// nesting under a stale parent.
func TestDetach(t *testing.T) {
	defer DisableTracing()
	tr := ResetTracing()
	ctx, parent := Start(context.Background(), "parent")
	_, child := Start(Detach(ctx), "detached")
	child.End()
	parent.End()
	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (parent + detached)", len(roots))
	}
	if len(roots[0].Children()) != 0 {
		t.Errorf("detached span still nested under parent")
	}
}
