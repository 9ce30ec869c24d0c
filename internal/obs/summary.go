package obs

import (
	"runtime"
	"sync"
)

// RunSummary is the structured detail of a journal's run.end event: the
// run's registry snapshot, per-stage wall times, staged QoR metrics, and
// process health at flush. cryoobs trend compares these summaries run over
// run. The binary and command line live on run.start and produced files on
// the artifact events, so neither is repeated here; per-stage CPU is in the
// -cost pprof profile, not the journal.
type RunSummary struct {
	// Metrics is the full registry snapshot at flush time (nil when metrics
	// were off).
	Metrics *Snapshot `json:"metrics,omitempty"`
	// Stages maps span name -> total seconds (the tracer's Totals).
	Stages map[string]float64 `json:"stages,omitempty"`
	// QoR carries flattened quality-of-results metrics contributed by the
	// running tool through AddRunQoR (cryobench flattens its baseline here).
	QoR map[string]float64 `json:"qor,omitempty"`
	// PeakRSSBytes is the process's peak resident set size at flush (0 when
	// the platform does not report it).
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// GCPauseTotalSec is the cumulative stop-the-world GC pause time.
	GCPauseTotalSec float64 `json:"gc_pause_total_seconds,omitempty"`
}

// runQoR stages QoR metrics for the run summary written at flag flush;
// tools contribute via AddRunQoR before exiting.
var runQoR struct {
	mu sync.Mutex
	m  map[string]float64
}

// AddRunQoR merges flattened QoR metrics into the summary that the
// -journal flag's run.end event carries on exit.
func AddRunQoR(metrics map[string]float64) {
	if len(metrics) == 0 {
		return
	}
	runQoR.mu.Lock()
	defer runQoR.mu.Unlock()
	if runQoR.m == nil {
		runQoR.m = map[string]float64{}
	}
	for k, v := range metrics {
		runQoR.m[k] = v
	}
}

// takeRunQoR drains the staged QoR metrics (nil when none). Draining keeps
// one run's QoR from leaking into the next summary when a process flushes
// more than once (tests, long-lived tools).
func takeRunQoR() map[string]float64 {
	runQoR.mu.Lock()
	defer runQoR.mu.Unlock()
	out := runQoR.m
	runQoR.m = nil
	if len(out) == 0 {
		return nil
	}
	return out
}

// buildRunSummary assembles this run's summary at flush time: the registry
// snapshot (after a final runtime sample), per-stage wall times, staged QoR
// metrics, peak RSS, and total GC pause.
func buildRunSummary() *RunSummary {
	s := &RunSummary{QoR: takeRunQoR()}
	if MetricsEnabled() {
		SampleRuntimeMetrics()
		s.Metrics = Metrics().Snapshot()
	}
	// Peak RSS and GC pause totals are recorded unconditionally: runs that
	// never scraped /metrics would otherwise miss them entirely.
	s.PeakRSSBytes = peakRSSBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.GCPauseTotalSec = round6(float64(ms.PauseTotalNs) / 1e9)
	if totals := Tracing().Totals(); len(totals) > 0 {
		s.Stages = make(map[string]float64, len(totals))
		for name, st := range totals {
			s.Stages[name] = round6(st.Total.Seconds())
		}
	}
	return s
}
