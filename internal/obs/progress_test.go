package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fixProgressClock pins the progress clock to a settable instant and
// restores time.Now on cleanup.
func fixProgressClock(t *testing.T, at *time.Time) {
	t.Helper()
	progressNow = func() time.Time { return *at }
	t.Cleanup(func() { progressNow = time.Now })
}

func TestProgressDisabledIsNoop(t *testing.T) {
	DisableProgress()
	task := Progress("idle.task", 10)
	if task != nil {
		t.Fatalf("disabled Progress returned %v, want nil", task)
	}
	// Every method must be a safe no-op on nil.
	task.Add(3)
	task.Inc()
	task.AddTotal(5)
	task.Finish()
	if task.Done() != 0 || task.Total() != 0 || task.Finished() || task.Name() != "" {
		t.Errorf("nil task leaked state: done=%d total=%d", task.Done(), task.Total())
	}
	if snap := ProgressTable().Snapshot(); len(snap) != 0 {
		t.Errorf("disabled progress snapshot = %+v, want empty", snap)
	}
}

func TestProgressConcurrent(t *testing.T) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	task := Progress("conc.task", 0)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Total discovery and completion race from every worker, like
			// charlib's per-cell arc planning.
			task.AddTotal(per)
			for i := 0; i < per; i++ {
				task.Inc()
			}
		}()
	}
	wg.Wait()
	if got := task.Done(); got != workers*per {
		t.Errorf("done = %d, want %d", got, workers*per)
	}
	if got := task.Total(); got != workers*per {
		t.Errorf("total = %d, want %d", got, workers*per)
	}
}

func TestProgressSnapshotAndJSON(t *testing.T) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	start := time.Unix(1000, 0)
	now := start
	fixProgressClock(t, &now)

	task := Progress("char.grid", 200)
	now = start.Add(10 * time.Second)
	task.Add(50)

	now = start.Add(20 * time.Second)
	snap := ProgressTable().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d tasks, want 1", len(snap))
	}
	s := snap[0]
	if s.Name != "char.grid" || s.Done != 50 || s.Total != 200 {
		t.Fatalf("snapshot identity: %+v", s)
	}
	if s.Percent != 25 {
		t.Errorf("percent = %g, want 25", s.Percent)
	}
	if s.RatePerSec != 2.5 { // 50 units over 20 s
		t.Errorf("rate = %g, want 2.5", s.RatePerSec)
	}
	if s.ETASec != 60 { // 150 remaining at 2.5/s
		t.Errorf("eta = %g, want 60", s.ETASec)
	}
	if s.SilentSec != 10 {
		t.Errorf("silent = %g, want 10", s.SilentSec)
	}
	line := s.Line()
	for _, want := range []string{"char.grid", "50/200", "25.0%", "2.5/s", "eta 60s"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line() = %q, missing %q", line, want)
		}
	}

	if s.ElapsedSec != 20 || s.Finished {
		t.Errorf("elapsed = %g, finished = %v; want 20, false", s.ElapsedSec, s.Finished)
	}
}

func TestProgressEpisodeReset(t *testing.T) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	t1 := Progress("corner", 10)
	t1.Add(10)
	t1.Finish()
	if !t1.Finished() {
		t.Fatal("task not finished")
	}
	// Re-registering a finished task (second corner of cryochar -compare)
	// starts a fresh episode on the same handle.
	t2 := Progress("corner", 7)
	if t2 != t1 {
		t.Fatalf("re-registration returned a different handle")
	}
	if t2.Finished() || t2.Done() != 0 || t2.Total() != 7 {
		t.Errorf("episode not reset: done=%d total=%d finished=%v", t2.Done(), t2.Total(), t2.Finished())
	}
	// Registering a live task with a nonzero total grows the plan.
	Progress("corner", 3)
	if t2.Total() != 10 {
		t.Errorf("live re-registration total = %d, want 10", t2.Total())
	}
}

func TestProgressUnknownTotalLine(t *testing.T) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	start := time.Unix(2000, 0)
	now := start
	fixProgressClock(t, &now)
	task := Progress("cec.nodes", 0)
	now = start.Add(2 * time.Second)
	task.Add(100)
	s := task.snapshotAt(now)
	line := s.Line()
	if !strings.Contains(line, "100 done") || strings.Contains(line, "%") {
		t.Errorf("unknown-total line = %q", line)
	}
	task.Finish()
	s = task.snapshotAt(now)
	if !strings.Contains(s.Line(), "finished in") {
		t.Errorf("finished line = %q", s.Line())
	}
}
