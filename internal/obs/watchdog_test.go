package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWatchdogStallFiresOnce injects a stall by letting a task go silent
// past the deadline and verifies exactly one post-mortem is captured per
// silence episode, with the goroutine dump and a typed journal event.
func TestWatchdogStallFiresOnce(t *testing.T) {
	DisableProgress()
	StopStallWatchdog()
	defer StopStallWatchdog()
	defer DisableProgress()

	var buf bytes.Buffer
	prev := SetJournal(NewJournal(&buf, "r-stall"))
	defer func() { SetJournal(prev).Close() }()

	var mu sync.Mutex
	var reports []*StallReport
	fired := make(chan struct{}, 16)
	StartStallWatchdog(WatchdogConfig{
		Deadline: 30 * time.Millisecond,
		OnStall: func(r *StallReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
			fired <- struct{}{}
		},
	})
	if !ProgressEnabled() {
		t.Fatal("watchdog must enable progress tracking")
	}

	task := Progress("wedged.stage", 100)
	task.Add(42)

	// Silence: the watchdog scans at deadline/4, so the stall must be seen
	// well within a second.
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("stall never fired")
	}
	// Stay silent across several more scan ticks: the episode must not
	// re-fire.
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	n := len(reports)
	rep := reports[0]
	mu.Unlock()
	if n != 1 {
		t.Fatalf("stall fired %d times for one episode, want exactly 1", n)
	}
	if rep.Task != "wedged.stage" || rep.Done != 42 || rep.Total != 100 {
		t.Errorf("report identity: %+v", rep)
	}
	if rep.SilentSec <= 0 || rep.DeadlineSec != 0.03 {
		t.Errorf("report timing: silent=%g deadline=%g", rep.SilentSec, rep.DeadlineSec)
	}
	if !strings.Contains(rep.Goroutines, "goroutine") {
		t.Errorf("goroutine dump missing: %.80q", rep.Goroutines)
	}

	// Progress resumes: the episode re-arms and a second silence fires again.
	task.Add(1)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed stall never fired")
	}

	// The journal carries typed stall events with the report as detail.
	StopStallWatchdog()
	J().Sync()
	evs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	stalls := 0
	for _, e := range evs {
		if e.Kind != KindStall {
			continue
		}
		stalls++
		if e.Stage != "wedged.stage" || e.Attrs["task"] != "wedged.stage" {
			t.Errorf("stall event identity: %+v", e)
		}
		var det StallReport
		if err := json.Unmarshal(e.Detail, &det); err != nil {
			t.Fatalf("stall detail: %v", err)
		}
		if det.Task != "wedged.stage" || !strings.Contains(det.Goroutines, "goroutine") {
			t.Errorf("stall detail mangled: task=%q", det.Task)
		}
	}
	if stalls < 2 {
		t.Errorf("journal has %d stall events, want >= 2 (one per episode)", stalls)
	}
}

// TestWatchdogAbortWritesCost: -stall-abort exits with status 2 and still
// leaves a complete -cost profile. The test binary re-runs itself as the
// child (OBS_ABORT_COST names its profile file): cost on, an aborting
// watchdog with a 20 ms deadline, and one task that never advances.
func TestWatchdogAbortWritesCost(t *testing.T) {
	if path := os.Getenv("OBS_ABORT_COST"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			os.Exit(3)
		}
		if err := EnableCost(f); err != nil {
			os.Exit(3)
		}
		StartStallWatchdog(WatchdogConfig{Deadline: 20 * time.Millisecond, Abort: true})
		Progress("wedged.stage", 10)
		time.Sleep(10 * time.Second)
		os.Exit(0) // the watchdog never aborted
	}
	path := filepath.Join(t.TempDir(), "cost.pprof")
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdogAbortWritesCost$")
	cmd.Env = append(os.Environ(), "OBS_ABORT_COST="+path)
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want exit status 2", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("cost profile is not gzip: %v", err)
	}
	if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
		t.Fatalf("cost profile incomplete: %d bytes, %v", len(b), err)
	}
}

// TestWatchdogIgnoresFinishedTasks: a finished task going "silent" is just
// done, not stalled.
func TestWatchdogIgnoresFinishedTasks(t *testing.T) {
	DisableProgress()
	StopStallWatchdog()
	defer StopStallWatchdog()
	defer DisableProgress()

	var mu sync.Mutex
	count := 0
	StartStallWatchdog(WatchdogConfig{
		Deadline: 20 * time.Millisecond,
		OnStall: func(*StallReport) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	task := Progress("done.stage", 5)
	task.Add(5)
	task.Finish()
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Errorf("finished task fired %d stalls, want 0", count)
	}
}

func TestActiveStack(t *testing.T) {
	DisableTracing()
	EnableTracing()
	defer DisableTracing()
	tr := Tracing()
	if got := tr.ActiveStack(); got != nil {
		t.Errorf("empty tracer stack = %v, want nil", got)
	}
	ctxRoot, _ := Start(context.Background(), "flow")
	time.Sleep(time.Millisecond)
	ctxMid, mid := Start(ctxRoot, "charlib.library")
	time.Sleep(time.Millisecond)
	_, leaf := Start(ctxMid, "charlib.cell")
	time.Sleep(time.Millisecond)
	_, sib := Start(ctxRoot, "other")
	sib.End()
	got := tr.ActiveStack()
	want := []string{"flow", "charlib.library", "charlib.cell"}
	if len(got) != len(want) {
		t.Fatalf("ActiveStack = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveStack = %v, want %v", got, want)
		}
	}
	leaf.End()
	mid.End()
	got = tr.ActiveStack()
	if len(got) != 1 || got[0] != "flow" {
		t.Errorf("after ends, ActiveStack = %v, want [flow]", got)
	}
	var nilT *Tracer
	if nilT.ActiveStack() != nil {
		t.Error("nil tracer ActiveStack should be nil")
	}
}
