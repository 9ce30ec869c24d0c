package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func freshMetrics(t *testing.T) *Registry {
	t.Helper()
	DisableMetrics()
	r := EnableMetrics()
	t.Cleanup(DisableMetrics)
	return r
}

func TestNilSafety(t *testing.T) {
	DisableMetrics()
	// Every handle obtained while disabled must be a usable no-op.
	C("x").Inc()
	C("x").Add(5)
	if got := C("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	G("y").Set(3)
	G("y").Add(1)
	if got := G("y").Value(); got != 0 {
		t.Fatalf("nil gauge value = %g, want 0", got)
	}
	H("z").Observe(1)
	if got := H("z").Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
	var sb strings.Builder
	if err := Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	freshMetrics(t)
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				C("conc.counter").Inc()
				G("conc.gauge").Add(1)
				H("conc.hist").Observe(float64(j%100 + 1))
				// Distinct names force concurrent get-or-create too.
				C("conc.mine." + string(rune('a'+i))).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := C("conc.counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := G("conc.gauge").Value(); got != goroutines*perG {
		t.Errorf("gauge = %g, want %d", got, goroutines*perG)
	}
	if got := H("conc.hist").Count(); got != goroutines*perG {
		t.Errorf("hist count = %d, want %d", got, goroutines*perG)
	}
	for i := 0; i < goroutines; i++ {
		if got := C("conc.mine." + string(rune('a'+i))).Value(); got != perG {
			t.Errorf("per-goroutine counter %d = %d, want %d", i, got, perG)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	freshMetrics(t)
	h := H("q.hist")
	// 1..1000 uniformly: quantile q should be ~ 1000q within one bucket
	// (the log buckets have ~26% relative resolution).
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("min = %g", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("max = %g", got)
	}
	if got, want := h.Sum(), 500500.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000},
	} {
		got := h.Quantile(tc.q)
		if tc.want >= 1 && (got < tc.want/1.3 || got > tc.want*1.3) {
			t.Errorf("quantile(%g) = %g, want within 30%% of %g", tc.q, got, tc.want)
		}
	}
	// Quantiles must be monotone in q.
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%g gives %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramTinyValues(t *testing.T) {
	freshMetrics(t)
	h := H("tiny.hist")
	// Picosecond-scale values, as produced by per-arc delay telemetry.
	for _, v := range []float64{1e-12, 2e-12, 4e-12, 8e-12} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got < 1e-12 || got > 8e-12 {
		t.Fatalf("p50 of ps-scale data = %g, want within observed range", got)
	}
	h.Observe(0) // nonpositive values must not panic and land in bucket 0
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d", got)
	}
}

// TestQuantileEdgeCases pins Histogram.Quantile's boundary behavior: empty
// histogram, single observation, and the q=0 / q=1 extremes.
func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge")
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %g, want 0", got)
	}
	h.Observe(3.25)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 3.25 {
			t.Errorf("single-obs Quantile(%g) = %g, want 3.25", q, got)
		}
	}
	h.Observe(1.5)
	h.Observe(9)
	if got := h.Quantile(0); got != 1.5 {
		t.Errorf("Quantile(0) = %g, want min 1.5", got)
	}
	if got := h.Quantile(-0.3); got != 1.5 {
		t.Errorf("Quantile(-0.3) = %g, want min 1.5", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %g, want max 9", got)
	}
	if got := h.Quantile(2); got != 9 {
		t.Errorf("Quantile(2) = %g, want max 9", got)
	}
	if got := h.Quantile(0.5); got < 1.5 || got > 9 {
		t.Errorf("Quantile(0.5) = %g, outside observed range", got)
	}
}

// TestHistogramObserveN checks the batched form against n single
// observations: same count, extremes and buckets, and the same sum up to
// rounding (v*n is one multiplication, n observations n additions).
func TestHistogramObserveN(t *testing.T) {
	batched, single := newHistogram(), newHistogram()
	for _, obsv := range []struct {
		v float64
		n int64
	}{{2.5e-7, 4}, {1e-6, 1}, {3, 7}, {5, 0}} {
		batched.ObserveN(obsv.v, obsv.n)
		for i := int64(0); i < obsv.n; i++ {
			single.Observe(obsv.v)
		}
	}
	if batched.Count() != 12 || batched.Count() != single.Count() || math.Abs(batched.Sum()-single.Sum()) > 1e-12*single.Sum() ||
		batched.Min() != single.Min() || batched.Max() != single.Max() {
		t.Fatalf("batched count=%d sum=%g min=%g max=%g, single count=%d sum=%g min=%g max=%g",
			batched.Count(), batched.Sum(), batched.Min(), batched.Max(),
			single.Count(), single.Sum(), single.Min(), single.Max())
	}
	for i := range batched.buckets {
		if batched.buckets[i].Load() != single.buckets[i].Load() {
			t.Fatalf("bucket %d: batched %d, single %d", i, batched.buckets[i].Load(), single.buckets[i].Load())
		}
	}
}
