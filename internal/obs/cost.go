package obs

import (
	"fmt"
	"io"
	"runtime/pprof"
	"sync/atomic"
)

// CostLabelKey is the pprof goroutine label under which spans publish their
// tree path while -cost is on. Worker goroutines spawned inside a span
// inherit the label, so the -cost CPU profile stays sliceable by flow stage
// (go tool pprof -tags, -tagfocus span=...) even deep inside the
// charlib/cec/gsim worker pools.
const CostLabelKey = "span"

var costOn atomic.Bool

// EnableCost starts a CPU profile written to w and turns on tracing, so
// every span from here on labels its goroutine with its path. It fails when
// another CPU profile already holds the profiler (including an earlier
// EnableCost that was not stopped).
func EnableCost(w io.Writer) error {
	if err := pprof.StartCPUProfile(w); err != nil {
		return fmt.Errorf("obs: cost: %w", err)
	}
	EnableTracing()
	costOn.Store(true)
	return nil
}

// CostEnabled reports whether the -cost profile is running.
func CostEnabled() bool { return costOn.Load() }

// StopCost stops the profile started by EnableCost and flushes it to its
// writer. Safe to call when cost is off.
func StopCost() {
	if costOn.CompareAndSwap(true, false) {
		pprof.StopCPUProfile()
	}
}
