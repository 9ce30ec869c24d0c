package obs

// HistogramSnapshot is the serializable state of one Histogram. Buckets is
// sparse (log-bucket index -> count), so small histograms stay small on
// disk; min/max are omitted from JSON when the histogram is empty (the
// in-memory sentinels are ±Inf, which JSON cannot carry).
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min,omitempty"`
	Max     float64       `json:"max,omitempty"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a Registry, suitable for JSON
// persistence (a stall post-mortem's StallReport carries one).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value. A nil registry yields an
// empty (but usable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		h := v.(*Histogram)
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		if hs.Count > 0 {
			hs.Min, hs.Max = h.Min(), h.Max()
			hs.Buckets = map[int]int64{}
			for i := range h.buckets {
				if c := h.buckets[i].Load(); c != 0 {
					hs.Buckets[i] = c
				}
			}
		}
		s.Histograms[k.(string)] = hs
		return true
	})
	return s
}
