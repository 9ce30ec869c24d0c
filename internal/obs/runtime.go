package obs

import (
	"runtime"
	"sync"
	"time"
)

// processStart anchors the uptime reported by /healthz and /buildinfo.
var processStart = time.Now()

var gcSample struct {
	mu        sync.Mutex
	lastNumGC uint32
}

// SampleRuntimeMetrics refreshes the runtime health gauges in the global
// registry — runtime.goroutines, runtime.heap_alloc_bytes,
// runtime.gc_count — and observes GC pauses that occurred since the last
// sample into the runtime.gc_pause_seconds histogram. It is called on
// every /metrics scrape and on flag flush, so scrapes see current values
// without a background sampler goroutine. No-op while metrics are disabled.
func SampleRuntimeMetrics() {
	if !MetricsEnabled() {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	G("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	G("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	G("runtime.gc_count").Set(float64(ms.NumGC))
	G("runtime.gc_pause_total_seconds").Set(float64(ms.PauseTotalNs) / 1e9)
	if rss := peakRSSBytes(); rss > 0 {
		G("runtime.peak_rss_bytes").Set(float64(rss))
	}

	// PauseNs is a ring of the last 256 pauses; replay only the ones that
	// are new since the previous sample so each pause is observed once.
	gcSample.mu.Lock()
	defer gcSample.mu.Unlock()
	last := gcSample.lastNumGC
	if ms.NumGC > last {
		newPauses := ms.NumGC - last
		if newPauses > uint32(len(ms.PauseNs)) {
			newPauses = uint32(len(ms.PauseNs))
		}
		h := H("runtime.gc_pause_seconds")
		for i := uint32(0); i < newPauses; i++ {
			pause := ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))]
			h.Observe(float64(pause) / 1e9)
		}
		gcSample.lastNumGC = ms.NumGC
	}
}

// Uptime returns the wall time since process start (as anchored at package
// initialization).
func Uptime() time.Duration { return time.Since(processStart) }
