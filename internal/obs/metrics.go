package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically updated int64 metric. The zero receiver (nil)
// is a valid no-op, so call sites never need to check whether metrics are
// enabled.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric (nil-safe like Counter).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates positive float64 observations into logarithmic
// buckets (about 26% relative resolution over 1e-15..1e5), tracking exact
// count, sum, min, and max. All methods are lock-free and nil-safe.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits, +Inf when empty
	maxBits atomic.Uint64 // math.Float64bits, -Inf when empty
	buckets [histBuckets]atomic.Int64
}

const (
	// Bucket i covers [histLo * histBase^i, histLo * histBase^(i+1)).
	histBuckets = 200
	histLoExp   = -150 // 10*log10(lower bound): 1e-15
)

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

func histIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(math.Floor(10*math.Log10(v))) - histLoExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bounds of bucket i.
func histBounds(i int) (lo, hi float64) {
	lo = math.Pow(10, float64(i+histLoExp)/10)
	hi = math.Pow(10, float64(i+1+histLoExp)/10)
	return lo, hi
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v at once — the flush of a hot loop
// that tallies locally instead of observing per event.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v*float64(n))) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[histIndex(v)].Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation (+Inf when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (-Inf when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (q in [0,1]) by rank interpolation
// inside the logarithmic buckets; exact at the extremes (min/max). The
// estimate is within one bucket (≈26% relative) of the true value.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(n)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := histBounds(i)
			if lo < h.Min() {
				lo = h.Min()
			}
			if hi > h.Max() {
				hi = h.Max()
			}
			frac := (rank - cum) / c
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.Max()
}

// Registry is a concurrent name -> metric table. Get-or-create lookups are
// lock-free on the hit path (sync.Map), so hot loops may call obs.C(...)
// directly, though hoisting the handle out of the loop is cheaper still.
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (which is itself a valid no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use
// (nil-safe).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram())
	return v.(*Histogram)
}

// CounterValues snapshots all counters by name.
func (r *Registry) CounterValues() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Counter).Value()
		return true
	})
	return out
}

// WriteText renders every metric, sorted by name, one per line:
//
//	counter spice.newton.iterations 104224
//	gauge   synth.map.area 1294
//	hist    charlib.cell.seconds count=200 sum=81.2 min=... p50=... p90=... max=...
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "(metrics disabled)")
		return err
	}
	type line struct{ name, text string }
	var lines []line
	r.counters.Range(func(k, v any) bool {
		name := k.(string)
		lines = append(lines, line{name, fmt.Sprintf("counter %-44s %d", name, v.(*Counter).Value())})
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		name := k.(string)
		lines = append(lines, line{name, fmt.Sprintf("gauge   %-44s %g", name, v.(*Gauge).Value())})
		return true
	})
	r.hists.Range(func(k, v any) bool {
		name := k.(string)
		h := v.(*Histogram)
		if h.Count() == 0 {
			lines = append(lines, line{name, fmt.Sprintf("hist    %-44s count=0", name)})
			return true
		}
		lines = append(lines, line{name, fmt.Sprintf(
			"hist    %-44s count=%d sum=%.6g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
			name, h.Count(), h.Sum(), h.Min(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())})
		return true
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l.text); err != nil {
			return err
		}
	}
	return nil
}
