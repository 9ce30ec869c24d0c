// Package obs is the flow-wide observability layer: cheap atomic metrics
// (counters, gauges, histograms) behind a process-global registry,
// hierarchical wall-time spans that nest into a flow tree and export as
// Chrome trace_event JSON, and an append-only JSONL run journal — the
// flight recorder that failure forensics (cmd/cryoobs) reads back, and
// where Warn records what the run survived.
//
// Everything is stdlib-only and off by default. When disabled, the
// hot-path entry points (obs.C(...).Add, obs.Start, obs.J().Event) reduce
// to an atomic pointer load plus a nil check — no allocation, no locking —
// so instrumentation can stay in the hot paths permanently. CLI binaries
// enable the layer through the -metrics / -trace / -journal flags
// installed by InstallFlags; the -journal file is the run's one persisted
// record, from a run.start carrying the build's VCS revision to the
// run.end that marks a clean exit.
//
// Metric names are dot-separated, lowest-level subsystem first
// (e.g. "spice.newton.iterations", "charlib.cache.hits"); the -metrics
// exposition renders them Prometheus-safe ("spice_newton_iterations"). Span
// names follow the same scheme ("synth.c2rs", "charlib.cell"). See
// docs/OBSERVABILITY.md for the full taxonomy.
package obs

import "sync/atomic"

var (
	globalRegistry atomic.Pointer[Registry]
	globalTracer   atomic.Pointer[Tracer]
)

// EnableMetrics installs a process-global metrics registry (keeping the
// current one if already enabled) and returns it.
func EnableMetrics() *Registry {
	if r := globalRegistry.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if !globalRegistry.CompareAndSwap(nil, r) {
		return globalRegistry.Load()
	}
	return r
}

// DisableMetrics removes the global registry. Metric handles already held
// by callers keep accepting updates but are no longer exported.
func DisableMetrics() { globalRegistry.Store(nil) }

// Metrics returns the global registry, or nil when metrics are disabled.
func Metrics() *Registry { return globalRegistry.Load() }

// MetricsEnabled reports whether a global registry is installed. Hot paths
// that must compute something before recording (e.g. an AIG depth) should
// guard on this to keep the disabled path free.
func MetricsEnabled() bool { return globalRegistry.Load() != nil }

// C returns the named counter from the global registry, or nil when
// metrics are disabled. All Counter methods are nil-safe.
func C(name string) *Counter { return globalRegistry.Load().Counter(name) }

// G returns the named gauge (nil-safe) from the global registry.
func G(name string) *Gauge { return globalRegistry.Load().Gauge(name) }

// H returns the named histogram (nil-safe) from the global registry.
func H(name string) *Histogram { return globalRegistry.Load().Histogram(name) }

// EnableTracing installs a process-global span tracer (keeping the current
// one if already enabled) and returns it.
func EnableTracing() *Tracer {
	if t := globalTracer.Load(); t != nil {
		return t
	}
	t := NewTracer()
	if !globalTracer.CompareAndSwap(nil, t) {
		return globalTracer.Load()
	}
	return t
}

// DisableTracing removes the global tracer; subsequent Start calls become
// no-ops.
func DisableTracing() { globalTracer.Store(nil) }

// ResetTracing unconditionally installs a fresh tracer (unlike
// EnableTracing, which keeps an existing one) and returns it. Benchmark
// harnesses use it to collect a clean span forest per repetition.
func ResetTracing() *Tracer {
	t := NewTracer()
	globalTracer.Store(t)
	return t
}

// Tracing returns the global tracer, or nil when tracing is disabled.
func Tracing() *Tracer { return globalTracer.Load() }
