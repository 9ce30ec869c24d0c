package obs

import (
	"context"
	"testing"
)

// BenchmarkDisabledSpan proves the disabled-tracing fast path is
// allocation-free: instrumentation left in hot paths costs one atomic load.
func BenchmarkDisabledSpan(b *testing.B) {
	DisableTracing()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx2, s := Start(ctx, "bench.disabled")
		s.SetAttr("k", 1)
		s.End()
		_ = ctx2
	}
}

// BenchmarkDisabledCounter measures the disabled-metrics fast path.
func BenchmarkDisabledCounter(b *testing.B) {
	DisableMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		C("bench.counter").Add(1)
	}
}

// BenchmarkDisabledJournal proves the disabled-journal fast path is
// allocation-free: one atomic pointer load plus a nil check.
func BenchmarkDisabledJournal(b *testing.B) {
	DisableJournal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		J().Event("bench.kind", "bench.stage", "msg", nil)
	}
}

// BenchmarkDisabledCost proves -cost adds nothing to the disabled span
// path: with cost (and tracing) off, Start/End never touch goroutine labels
// and CostEnabled is one atomic load.
func BenchmarkDisabledCost(b *testing.B) {
	StopCost()
	DisableTracing()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CostEnabled() {
			b.Fatal("cost must be disabled")
		}
		_, s := Start(ctx, "bench.cost")
		s.End()
	}
}

// BenchmarkDisabledProgress proves progress instrumentation in inner loops
// (gsim vector blocks, cec sweep nodes) is allocation-free when tracking is
// off: Progress returns nil and every method is a nil-receiver no-op.
func BenchmarkDisabledProgress(b *testing.B) {
	DisableProgress()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := Progress("bench.task", 10)
		task.Inc()
		task.Add(1)
		task.Finish()
	}
}

// BenchmarkEnabledProgress measures the tracked hot path (lookup + atomic
// adds) for comparison.
func BenchmarkEnabledProgress(b *testing.B) {
	DisableProgress()
	EnableProgress()
	defer DisableProgress()
	task := Progress("bench.task", int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Inc()
	}
}

// BenchmarkEnabledCounter measures the enabled hot path (lookup + atomic
// add) for comparison.
func BenchmarkEnabledCounter(b *testing.B) {
	DisableMetrics()
	EnableMetrics()
	defer DisableMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		C("bench.counter").Add(1)
	}
}

// BenchmarkEnabledSpan measures span creation cost with tracing on.
func BenchmarkEnabledSpan(b *testing.B) {
	DisableTracing()
	EnableTracing()
	defer DisableTracing()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s := Start(ctx, "bench.enabled")
		s.End()
	}
}
