package obs

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFlagSurface pins the shared observability flag surface. Every flow
// binary gets exactly this set from one InstallFlags call; a flag added
// here without updating the docs/README table (or added in one binary by
// hand) should fail loudly.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("pin", flag.ContinueOnError)
	InstallFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	want := []string{
		"cost", "journal", "loglevel", "metrics", "obs-addr",
		"progress", "stall", "stall-abort", "trace",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("obs flag surface drifted:\n got %v\nwant %v", got, want)
	}
}

// TestFlagsProgressLifecycle drives Activate/Flush with -progress and
// -journal set: progress tracking comes on, the reporter emits final
// per-task lines, and the flush ends the journal with exactly one run.end
// event whose summary carries the run's metrics, stages, staged QoR, and
// peak RSS.
func TestFlagsProgressLifecycle(t *testing.T) {
	DisableProgress()
	DisableMetrics()
	DisableTracing()
	DisableJournal()
	StopStallWatchdog()
	defer func() {
		DisableProgress()
		DisableMetrics()
		DisableTracing()
		DisableJournal()
	}()

	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.jsonl")
	f := &Flags{
		MetricsPath:   filepath.Join(dir, "metrics.txt"),
		TracePath:     filepath.Join(dir, "trace.json"),
		ProgressEvery: time.Hour, // reporter only fires its final flush pass
		JournalPath:   journalPath,
	}

	// Silence the reporter's stderr lines for the test.
	oldStderr := os.Stderr
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stderr = devnull
	defer func() { os.Stderr = oldStderr; devnull.Close() }()

	flush, err := f.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if !ProgressEnabled() {
		t.Fatal("-progress must enable progress tracking")
	}
	task := Progress("flags.test", 4)
	task.Add(4)
	task.Finish()
	_, span := Start(context.Background(), "flags.test.stage")
	span.End()
	C("flags.test.counter").Add(7)
	AddRunQoR(map[string]float64{"qor.x": 1.5})

	flush()
	flush() // double flush must not emit a second run.end

	evs, err := ReadJournalFile(journalPath)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	var starts, ends []Event
	for _, e := range evs {
		switch e.Kind {
		case KindRunStart:
			starts = append(starts, e)
		case KindRunEnd:
			ends = append(ends, e)
		}
	}
	if len(starts) != 1 || len(ends) != 1 {
		t.Fatalf("journal has %d run.start and %d run.end after double flush, want 1 each", len(starts), len(ends))
	}
	if starts[0].Attrs["bin"] == "" || ends[0].Run == "" || ends[0].Run != starts[0].Run {
		t.Errorf("run provenance incomplete: start %+v end run %q", starts[0], ends[0].Run)
	}
	var sum RunSummary
	if err := json.Unmarshal(ends[0].Detail, &sum); err != nil {
		t.Fatalf("run.end summary: %v", err)
	}
	if sum.Metrics == nil || sum.Metrics.Counters["flags.test.counter"] != 7 {
		t.Errorf("summary metrics: %+v", sum.Metrics)
	}
	if _, ok := sum.Stages["flags.test.stage"]; !ok {
		t.Errorf("summary stages: %+v", sum.Stages)
	}
	if sum.QoR["qor.x"] != 1.5 {
		t.Errorf("summary qor: %+v", sum.QoR)
	}
	if sum.PeakRSSBytes == 0 {
		t.Error("summary missing peak RSS")
	}
}

// TestStallFlagStartsWatchdog: -stall must install the watchdog (and
// progress tracking with it).
func TestStallFlagStartsWatchdog(t *testing.T) {
	DisableProgress()
	StopStallWatchdog()
	defer StopStallWatchdog()
	defer DisableProgress()
	f := &Flags{StallAfter: time.Hour}
	flush, err := f.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	defer flush()
	if globalWatchdog.Load() == nil {
		t.Error("-stall did not install the watchdog")
	}
	if !ProgressEnabled() {
		t.Error("-stall must enable progress tracking")
	}
}

// TestReportProgressEmitsJournalEvents: each reporter pass journals one
// progress event per task, and finished tasks report exactly once.
func TestReportProgressEmitsJournalEvents(t *testing.T) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	var sink journalSink
	prev := SetJournal(NewJournal(&sink, "r-prog"))
	defer func() { SetJournal(prev).Close() }()

	task := Progress("rep.task", 10)
	task.Add(5)
	reported := map[string]bool{}
	reportProgress(reported)
	task.Add(5)
	task.Finish()
	reportProgress(reported)
	reportProgress(reported) // finished: must not report again

	J().Sync()
	evs, err := ReadJournal(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	var progress []Event
	for _, e := range evs {
		if e.Kind == KindProgress {
			progress = append(progress, e)
		}
	}
	if len(progress) != 2 {
		t.Fatalf("got %d progress events, want 2 (live + final)", len(progress))
	}
	if progress[0].Attrs["done"] != "5" || progress[1].Attrs["done"] != "10" {
		t.Errorf("progress attrs: %+v, %+v", progress[0].Attrs, progress[1].Attrs)
	}
	if progress[0].Stage != "rep.task" {
		t.Errorf("progress stage = %q", progress[0].Stage)
	}
}

// journalSink is an in-memory journal target.
type journalSink struct{ b strings.Builder }

func (s *journalSink) Write(p []byte) (int, error) { return s.b.Write(p) }
func (s *journalSink) String() string              { return s.b.String() }

var _ io.Writer = (*journalSink)(nil)
