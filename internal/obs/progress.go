package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// progressNow is the progress clock, swappable by tests so rate/ETA math
// is deterministic.
var progressNow = time.Now

// Task tracks one stage's work units: how much is planned, how much is
// done, and — because every update stamps a wall-clock heartbeat — whether
// the stage is still alive. A nil *Task is a valid no-op (what Progress
// hands out while progress tracking is disabled), so instrumentation sites
// never guard.
//
// Updates are lock-free atomics; a Task may be fed from many goroutines
// (charlib feeds one task from every worker in the pool).
type Task struct {
	name    string
	startNs int64

	total    atomic.Int64
	done     atomic.Int64
	lastNs   atomic.Int64 // heartbeat: unix nanos of the latest update
	finished atomic.Bool

	// stallFired latches after the watchdog captured a post-mortem for the
	// current silence episode, so one stall produces exactly one event. Any
	// subsequent progress update re-arms it.
	stallFired atomic.Bool
}

// Name returns the task name ("" for nil).
func (t *Task) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Add records n finished work units and stamps the liveness heartbeat.
func (t *Task) Add(n int64) {
	if t == nil {
		return
	}
	t.done.Add(n)
	t.lastNs.Store(progressNow().UnixNano())
	if t.stallFired.Load() {
		t.stallFired.Store(false) // progress resumed; re-arm the watchdog
	}
}

// Inc records one finished work unit.
func (t *Task) Inc() { t.Add(1) }

// AddTotal grows the planned work count — stages that discover work
// incrementally (charlib arcs are planned per cell) register totals as
// they learn them.
func (t *Task) AddTotal(n int64) {
	if t == nil {
		return
	}
	t.total.Add(n)
	t.lastNs.Store(progressNow().UnixNano())
}

// Done returns the finished work count (0 for nil).
func (t *Task) Done() int64 {
	if t == nil {
		return 0
	}
	return t.done.Load()
}

// Total returns the planned work count (0 for nil; 0 also means "unknown",
// in which case no percentage or ETA is reported).
func (t *Task) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Finish marks the task complete. The watchdog stops monitoring it and the
// periodic reporter prints its final line. Re-registering a finished name
// via Progress starts a fresh episode.
func (t *Task) Finish() {
	if t == nil {
		return
	}
	t.lastNs.Store(progressNow().UnixNano())
	t.finished.Store(true)
}

// Finished reports whether Finish was called (false for nil).
func (t *Task) Finished() bool {
	if t == nil {
		return false
	}
	return t.finished.Load()
}

// ProgressRegistry is the table of live tasks. Registration keeps order,
// so the periodic report lines render stages in the order the flow
// reached them.
type ProgressRegistry struct {
	mu     sync.Mutex
	tasks  []*Task
	byName map[string]*Task
}

// NewProgressRegistry returns an empty progress registry.
func NewProgressRegistry() *ProgressRegistry {
	return &ProgressRegistry{byName: map[string]*Task{}}
}

var globalProgress atomic.Pointer[ProgressRegistry]

// EnableProgress installs a process-global progress registry (keeping the
// current one if already enabled) and returns it.
func EnableProgress() *ProgressRegistry {
	if p := globalProgress.Load(); p != nil {
		return p
	}
	p := NewProgressRegistry()
	if !globalProgress.CompareAndSwap(nil, p) {
		return globalProgress.Load()
	}
	return p
}

// DisableProgress removes the global progress registry. Task handles
// already held keep accepting updates but are no longer exported.
func DisableProgress() { globalProgress.Store(nil) }

// ProgressEnabled reports whether a global progress registry is installed.
func ProgressEnabled() bool { return globalProgress.Load() != nil }

// ProgressTable returns the global progress registry, or nil when progress
// tracking is disabled.
func ProgressTable() *ProgressRegistry { return globalProgress.Load() }

// Progress registers (or re-opens) the named task with total planned work
// units and returns it, or nil — a valid no-op — when progress tracking is
// disabled. Registering an existing live task adds total to its plan
// (incremental discovery from concurrent workers); registering a finished
// task resets it for a fresh episode (cryochar -compare characterizes two
// corners through the same task names).
func Progress(name string, total int64) *Task {
	return globalProgress.Load().Task(name, total)
}

// Task is the registry-level Progress (nil-safe).
func (p *ProgressRegistry) Task(name string, total int64) *Task {
	if p == nil {
		return nil
	}
	now := progressNow().UnixNano()
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.byName[name]; ok {
		if t.finished.Load() {
			t.startNs = now
			t.total.Store(total)
			t.done.Store(0)
			t.lastNs.Store(now)
			t.stallFired.Store(false)
			t.finished.Store(false)
		} else if total != 0 {
			t.total.Add(total)
			t.lastNs.Store(now)
		}
		return t
	}
	t := &Task{name: name, startNs: now}
	t.total.Store(total)
	t.lastNs.Store(now)
	p.byName[name] = t
	p.tasks = append(p.tasks, t)
	return t
}

// Tasks returns a snapshot of the registered tasks in registration order.
func (p *ProgressRegistry) Tasks() []*Task {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Task(nil), p.tasks...)
}

// TaskSnapshot is the exported point-in-time state of one task: the
// periodic report line and the journal progress event both derive from it.
type TaskSnapshot struct {
	Name       string
	Done       int64
	Total      int64
	Percent    float64
	RatePerSec float64
	ETASec     float64
	ElapsedSec float64
	SilentSec  float64
	Finished   bool
}

// Line renders the snapshot as the one-line human report the periodic
// reporter prints, e.g.
// "charlib.arcs 42/200 (21.0%) 3.1/s eta 51s" or, for tasks with an
// unknown total, "cec.sweep 1523 done 80.2/s".
func (s *TaskSnapshot) Line() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.Total > 0 {
		fmt.Fprintf(&b, " %d/%d (%.1f%%)", s.Done, s.Total, s.Percent)
	} else {
		fmt.Fprintf(&b, " %d done", s.Done)
	}
	if s.RatePerSec > 0 {
		fmt.Fprintf(&b, " %.1f/s", s.RatePerSec)
	}
	switch {
	case s.Finished:
		fmt.Fprintf(&b, " finished in %.1fs", s.ElapsedSec)
	case s.ETASec > 0:
		fmt.Fprintf(&b, " eta %.0fs", s.ETASec)
	}
	return b.String()
}

// snapshotAt digests the task at the given instant.
func (t *Task) snapshotAt(now time.Time) TaskSnapshot {
	s := TaskSnapshot{
		Name:     t.name,
		Done:     t.done.Load(),
		Total:    t.total.Load(),
		Finished: t.finished.Load(),
	}
	s.ElapsedSec = round6(float64(now.UnixNano()-t.startNs) / 1e9)
	s.SilentSec = round6(float64(now.UnixNano()-t.lastNs.Load()) / 1e9)
	if s.ElapsedSec < 0 {
		s.ElapsedSec = 0
	}
	if s.SilentSec < 0 {
		s.SilentSec = 0
	}
	if s.Total > 0 {
		s.Percent = round6(100 * float64(s.Done) / float64(s.Total))
	}
	if s.Done > 0 && s.ElapsedSec > 0 {
		s.RatePerSec = round6(float64(s.Done) / s.ElapsedSec)
		if s.Total > s.Done && !s.Finished {
			s.ETASec = round6(float64(s.Total-s.Done) / s.RatePerSec)
		}
	}
	return s
}

// round6 keeps the JSON payloads short (microsecond-ish resolution is
// plenty for human progress).
func round6(v float64) float64 {
	return float64(int64(v*1e6+0.5)) / 1e6
}

// Snapshot digests every task in registration order.
func (p *ProgressRegistry) Snapshot() []TaskSnapshot {
	now := progressNow()
	tasks := p.Tasks()
	out := make([]TaskSnapshot, 0, len(tasks))
	for _, t := range tasks {
		out = append(out, t.snapshotAt(now))
	}
	return out
}
