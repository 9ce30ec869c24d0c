package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// stallRoundTrip journals snap as the metrics of a stall post-mortem, reads
// the journal back, and returns the decoded snapshot: the only path by
// which a snapshot is persisted.
func stallRoundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf, "r-snap")
	j.EventDetail(KindStall, "snap.task", "", nil, &StallReport{Task: "snap.task", Metrics: snap})
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	evs, err := ReadJournal(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("journal: %v (%d events)", err, len(evs))
	}
	var rep StallReport
	if err := json.Unmarshal(evs[0].Detail, &rep); err != nil {
		t.Fatalf("stall detail: %v", err)
	}
	return rep.Metrics
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.hits").Add(42)
	r.Counter("a.misses").Add(7)
	r.Gauge("b.level").Set(3.25)
	h := r.Histogram("c.seconds")
	for _, v := range []float64{0.001, 0.002, 0.004, 1.5} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	back := stallRoundTrip(t, snap)
	if !reflect.DeepEqual(back, snap) {
		t.Fatalf("snapshot changed in the stall round trip:\n got %+v\nwant %+v", back, snap)
	}
	// The decoded histogram must match the live one exactly: every bucket,
	// the sum, and both extremes.
	hs := back.Histograms["c.seconds"]
	if hs.Count != 4 || hs.Sum != h.Sum() || hs.Min != 0.001 || hs.Max != 1.5 {
		t.Errorf("hist count=%d sum=%g min=%g max=%g", hs.Count, hs.Sum, hs.Min, hs.Max)
	}
	for i := range h.buckets {
		if got, want := hs.Buckets[i], h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestSnapshotRoundTripEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("empty.seconds")
	snap := r.Snapshot()
	back := stallRoundTrip(t, snap)
	if !reflect.DeepEqual(back, snap) {
		t.Fatalf("snapshot changed in the stall round trip:\n got %+v\nwant %+v", back, snap)
	}
	// The ±Inf min/max sentinels of an empty histogram cannot be carried by
	// JSON; the snapshot must hold zeros and no buckets instead.
	if hs, ok := back.Histograms["empty.seconds"]; !ok || hs.Count != 0 || hs.Min != 0 || hs.Max != 0 || hs.Buckets != nil {
		t.Errorf("empty hist after round trip: %+v (present %v)", hs, ok)
	}
}

func TestNilRegistrySnapshot(t *testing.T) {
	var r *Registry
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot has counters: %v", snap.Counters)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal empty snapshot: %v", err)
	}
	if string(raw) != "{}" {
		t.Errorf("expected empty JSON object, got %q", raw)
	}
}
