package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Flags carries the standard observability CLI flags shared by every
// binary in the flow: -metrics, -trace, -journal, -progress, -stall,
// -stall-abort, and -cost. Binaries must not hand-register any of
// these: one shared InstallFlags call is what keeps the flag surface
// identical across all ten tools (pinned by TestFlagSurface).
type Flags struct {
	// MetricsPath receives the Prometheus text exposition of the registry
	// on exit ("-" for stderr).
	MetricsPath string
	TracePath   string
	// JournalPath is the run's one persisted record: events as they happen,
	// then one run.end event on exit.
	JournalPath string
	// ProgressEvery enables progress tracking and prints per-stage
	// percent/rate/ETA report lines (and journal progress events) at this
	// interval.
	ProgressEvery time.Duration
	// StallAfter enables the stall watchdog: a registered stage silent
	// this long gets a goroutine-dump post-mortem journaled.
	StallAfter time.Duration
	// StallAbort aborts the process (exit 2) after a stall post-mortem
	// instead of waiting for the stage to recover.
	StallAbort bool
	// CostPath receives a gzipped pprof CPU profile of the run whose
	// samples carry the CostLabelKey span-path label; it implies tracing.
	CostPath string

	runEnded     atomic.Bool // run.end emitted (Flush may be called twice)
	stopReporter func()      // terminates the periodic progress reporter
	costFile     *os.File    // -cost profile sink, closed by the first Flush
}

// InstallFlags registers the observability flags on fs (typically
// flag.CommandLine, before flag.Parse). Call Activate after parsing.
func InstallFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsPath, "metrics", "", "write the metrics as Prometheus text exposition to this file on exit ('-' for stderr)")
	fs.StringVar(&f.TracePath, "trace", "", "write Chrome trace_event JSON (chrome://tracing, Perfetto) to this file on exit")
	fs.StringVar(&f.JournalPath, "journal", "", "write a structured JSONL run journal to this file (cryoobs reads it)")
	fs.DurationVar(&f.ProgressEvery, "progress", 0, "print per-stage progress lines (percent/rate/ETA) at this interval (e.g. 5s)")
	fs.DurationVar(&f.StallAfter, "stall", 0, "stall watchdog: journal a goroutine-dump post-mortem when a stage makes no progress for this long")
	fs.BoolVar(&f.StallAbort, "stall-abort", false, "with -stall, abort the process (exit 2) after capturing the stall post-mortem")
	fs.StringVar(&f.CostPath, "cost", "", "write a CPU profile whose samples carry span=<span path> labels to this file (go tool pprof -tags / -tagfocus span=...); implies tracing")
	return f
}

// active is the Flags the last successful Activate armed: the telemetry
// Exit flushes.
var active atomic.Pointer[Flags]

// Activate enables the subsystems the parsed flags ask for and returns a
// flush function that writes the -metrics, -trace and -cost outputs; call
// it on every exit path (it is safe to call more than once, later calls
// overwrite the metrics and trace files with fresher data). Exit flushes
// the same flags. It fails when the -cost file cannot be created or
// another CPU profile is running.
func (f *Flags) Activate() (flush func(), err error) {
	if f.MetricsPath != "" {
		EnableMetrics()
	}
	if f.TracePath != "" {
		EnableTracing()
	}
	if f.ProgressEvery > 0 || f.StallAfter > 0 {
		EnableProgress()
	}
	if f.StallAfter > 0 {
		StartStallWatchdog(WatchdogConfig{Deadline: f.StallAfter, Abort: f.StallAbort})
	}
	if f.ProgressEvery > 0 {
		f.stopReporter = startProgressReporter(f.ProgressEvery)
	}
	if f.JournalPath != "" {
		j, err := EnableJournal(f.JournalPath)
		if err != nil {
			return nil, err
		}
		bi, _ := debug.ReadBuildInfo()
		j.Event(KindRunStart, "", strings.Join(os.Args, " "), runStartAttrs(filepath.Base(os.Args[0]), bi))
		// Flush eagerly: a crashed process must leave at least its run.start
		// on disk, or there is nothing to post-mortem.
		if err := j.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "obs: journal: flushing %s: %v\n", f.JournalPath, err)
		}
	}
	if f.CostPath != "" {
		g, err := os.Create(f.CostPath)
		if err != nil {
			return nil, err
		}
		if err := EnableCost(g); err != nil {
			g.Close()
			os.Remove(f.CostPath)
			return nil, err
		}
		f.costFile = g
	}
	active.Store(f)
	return f.Flush, nil
}

// Exit flushes the telemetry the last Activate armed, if any, and ends the
// process with code. A binary calls it instead of os.Exit, which skips the
// deferred flush.
func Exit(code int) {
	if f := active.Load(); f != nil {
		f.Flush()
	}
	os.Exit(code)
}

// Flush stops the -cost profile, writes the metrics and trace outputs
// requested by the flags and ends the journal with one run.end event.
// Failures are printed to stderr rather than returned: flushing
// telemetry must never mask the tool's own exit status.
func (f *Flags) Flush() {
	if f.costFile != nil {
		StopCost()
		if err := f.costFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "obs: writing cost profile to %s: %v\n", f.CostPath, err)
		}
		f.costFile = nil
	}
	if f.MetricsPath != "" {
		SampleRuntimeMetrics()
		if f.MetricsPath == "-" {
			fmt.Fprintln(os.Stderr, "# --- metrics ---")
			if err := Metrics().WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "obs: writing metrics: %v\n", err)
			}
		} else if err := writeFileWith(f.MetricsPath, Metrics().WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "obs: writing metrics to %s: %v\n", f.MetricsPath, err)
		}
	}
	if f.TracePath != "" {
		if err := writeFileWith(f.TracePath, Tracing().WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "obs: writing trace to %s: %v\n", f.TracePath, err)
		}
	}
	if f.stopReporter != nil {
		f.stopReporter()
		f.stopReporter = nil
	}
	if f.JournalPath != "" {
		j := J()
		if f.runEnded.CompareAndSwap(false, true) {
			j.Event(KindRunEnd, "", "", nil)
		}
		if err := j.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "obs: journal: flushing %s: %v\n", f.JournalPath, err)
		}
	}
}

// runStartAttrs builds the run.start attributes: the binary name plus the
// Go version and the vcs.revision and vcs.modified settings of the build
// info. An attribute the build info lacks is left out: go run and go test
// stamp no vcs.* settings, and bi is nil without build info.
func runStartAttrs(bin string, bi *debug.BuildInfo) map[string]string {
	attrs := map[string]string{"bin": bin}
	if bi == nil {
		return attrs
	}
	if bi.GoVersion != "" {
		attrs["go"] = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
			attrs[s.Key] = s.Value
		}
	}
	return attrs
}

// startProgressReporter launches the periodic reporter: one stderr line and
// one journal progress event per live (or just-finished) task per interval.
// The returned stop function prints each task's final state once.
func startProgressReporter(every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// reported tracks tasks whose finished state was already printed, so
		// each task gets exactly one final line.
		reported := map[string]bool{}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				reportProgress(reported)
				return
			case <-t.C:
				reportProgress(reported)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// reportProgress emits one report line + journal event per task that is
// either live or newly finished since the last report.
func reportProgress(reported map[string]bool) {
	p := ProgressTable()
	if p == nil {
		return
	}
	j := J()
	for _, s := range p.Snapshot() {
		if reported[s.Name] {
			continue
		}
		if s.Finished {
			reported[s.Name] = true
		}
		fmt.Fprintln(os.Stderr, "progress: "+s.Line())
		if j != nil {
			j.Event(KindProgress, s.Name, s.Line(), map[string]string{
				"done":         strconv.FormatInt(s.Done, 10),
				"total":        strconv.FormatInt(s.Total, 10),
				"percent":      strconv.FormatFloat(s.Percent, 'g', 6, 64),
				"rate_per_sec": strconv.FormatFloat(s.RatePerSec, 'g', 6, 64),
				"eta_seconds":  strconv.FormatFloat(s.ETASec, 'g', 6, 64),
			})
		}
	}
}

func writeFileWith(path string, write func(w io.Writer) error) error {
	g, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(g); err != nil {
		g.Close()
		return err
	}
	return g.Close()
}
