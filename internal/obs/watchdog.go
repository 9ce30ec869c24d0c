package obs

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// StallReport is the structured post-mortem the watchdog captures when a
// registered stage goes silent past its deadline: the wedged task's
// counters, the active span stack (where in the flow tree the run was),
// a registry snapshot, and a full goroutine dump. It rides as the detail
// payload of the typed "stall" journal event, which cmd/cryoobs report
// renders.
type StallReport struct {
	Task         string    `json:"task"`
	Done         int64     `json:"done"`
	Total        int64     `json:"total,omitempty"`
	SilentSec    float64   `json:"silent_seconds"`
	DeadlineSec  float64   `json:"deadline_seconds"`
	SpanStack    []string  `json:"span_stack,omitempty"`
	NumGoroutine int       `json:"num_goroutine"`
	Goroutines   string    `json:"goroutines"`
	Metrics      *Snapshot `json:"metrics,omitempty"`
}

// WatchdogConfig tunes the stall watchdog.
type WatchdogConfig struct {
	// Deadline is the silence (no progress update on a live task) that
	// counts as a stall.
	Deadline time.Duration
	// Abort exits the process (status 2) after the post-mortem is captured
	// and flushed; the default is to keep waiting (the solve may still
	// finish, and the journal already holds the evidence).
	Abort bool
	// OnStall, when non-nil, observes each captured report (tests; the
	// abort decision still applies after it returns).
	OnStall func(*StallReport)
}

// Watchdog periodically scans the progress registry for tasks whose
// heartbeat went silent past the deadline and turns each such episode into
// a self-documenting post-mortem: a goroutine dump + registry snapshot
// journaled as a "stall" event. One episode fires exactly once; a task
// that resumes progress re-arms.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	once sync.Once
}

var globalWatchdog atomic.Pointer[Watchdog]

// StartStallWatchdog enables progress tracking, installs a watchdog with
// the given config, and starts its scan loop. A second call while one is
// running returns the existing watchdog unchanged.
func StartStallWatchdog(cfg WatchdogConfig) *Watchdog {
	if w := globalWatchdog.Load(); w != nil {
		return w
	}
	EnableProgress()
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Minute
	}
	w := &Watchdog{cfg: cfg, stop: make(chan struct{})}
	if !globalWatchdog.CompareAndSwap(nil, w) {
		return globalWatchdog.Load()
	}
	go w.loop()
	return w
}

// StopStallWatchdog stops and removes the global watchdog (no-op when none
// is running).
func StopStallWatchdog() {
	if w := globalWatchdog.Swap(nil); w != nil {
		w.Stop()
	}
}

// Stop terminates the scan loop. Safe to call repeatedly.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.once.Do(func() { close(w.stop) })
}

// loop scans at a quarter of the deadline so a stall is detected within
// ~1.25 deadlines of the last heartbeat.
func (w *Watchdog) loop() {
	tick := w.cfg.Deadline / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.scan()
		}
	}
}

// scan fires a post-mortem for every live task silent past the deadline
// that has not already fired for this episode.
func (w *Watchdog) scan() {
	p := globalProgress.Load()
	if p == nil {
		return
	}
	now := progressNow()
	for _, task := range p.Tasks() {
		if task.finished.Load() {
			continue
		}
		silent := now.UnixNano() - task.lastNs.Load()
		if silent < int64(w.cfg.Deadline) {
			continue
		}
		if !task.stallFired.CompareAndSwap(false, true) {
			continue // already post-mortemed this episode
		}
		rep := w.capture(task, float64(silent)/1e9)
		if w.cfg.OnStall != nil {
			w.cfg.OnStall(rep)
		}
		if w.cfg.Abort {
			fmt.Fprintf(os.Stderr,
				"obs: watchdog: stage %s stalled for %.1fs (deadline %.1fs); aborting\n%s\n",
				rep.Task, rep.SilentSec, rep.DeadlineSec, rep.Goroutines)
			// os.Exit skips the flush: a CPU profile is written out only
			// when it is stopped, and a stalled run's is the one worth
			// keeping.
			StopCost()
			os.Exit(2)
		}
	}
}

// capture assembles the post-mortem and journals it. The journal is
// synced immediately: a stalled process is exactly the one likely to be
// killed before a graceful flush.
func (w *Watchdog) capture(task *Task, silentSec float64) *StallReport {
	rep := &StallReport{
		Task:         task.name,
		Done:         task.done.Load(),
		Total:        task.total.Load(),
		SilentSec:    round6(silentSec),
		DeadlineSec:  w.cfg.Deadline.Seconds(),
		SpanStack:    Tracing().ActiveStack(),
		NumGoroutine: runtime.NumGoroutine(),
		Goroutines:   goroutineDump(),
	}
	if MetricsEnabled() {
		rep.Metrics = Metrics().Snapshot()
	}
	C("obs.stalls").Inc()
	fmt.Fprintf(os.Stderr, "obs: watchdog: stage %s silent for %.1fs (deadline %gs) at %d/%d units — post-mortem captured\n",
		rep.Task, rep.SilentSec, rep.DeadlineSec, rep.Done, rep.Total)
	if j := J(); j != nil {
		j.EventDetail(KindStall, rep.Task,
			fmt.Sprintf("no progress for %.1fs", rep.SilentSec),
			map[string]string{
				"task":           rep.Task,
				"silent_seconds": strconv.FormatFloat(rep.SilentSec, 'g', 6, 64),
				"done":           strconv.FormatInt(rep.Done, 10),
				"total":          strconv.FormatInt(rep.Total, 10),
			}, rep)
		if err := j.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "obs: watchdog: flushing journal: %v\n", err)
		}
	}
	return rep
}

// goroutineDump captures the stacks of every goroutine, growing the buffer
// until the dump fits (capped at 64 MiB).
func goroutineDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) || len(buf) >= 64<<20 {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

// ActiveStack returns the name path (root first) of the deepest span still
// open — the flow's "where am I" at stall time. It picks the most recently
// started open span, so a wedged leaf solve reports its full ancestry. Nil
// tracer (tracing disabled) returns nil.
func (t *Tracer) ActiveStack() []string {
	if t == nil {
		return nil
	}
	var best *Span
	var walk func(s *Span)
	walk = func(s *Span) {
		s.mu.Lock()
		ended := s.ended
		start := s.start
		s.mu.Unlock()
		if !ended && (best == nil || start.After(best.start)) {
			best = s
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	if best == nil {
		return nil
	}
	var path []string
	for s := best; s != nil; s = s.parent {
		path = append([]string{s.name}, path...)
	}
	return path
}
