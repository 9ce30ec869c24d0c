package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// traceEvent is one Chrome trace_event "complete" event (ph = "X"),
// loadable in chrome://tracing and Perfetto.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds since trace epoch
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders the span forest as Chrome trace_event JSON (an
// array of complete events). Spans that overlap in time — parallel
// characterization workers, say — are spread across synthetic thread lanes
// so the nesting renders correctly in the viewer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var events []traceEvent
	nextTid := 0
	for _, root := range t.Roots() {
		nextTid++
		t.emit(root, nextTid, &nextTid, &events)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// emit appends the event for s on lane tid, then lays s's children out on
// lanes: children that fit after the previous sibling share the parent's
// lane; overlapping siblings open fresh lanes (first-fit interval
// scheduling), keeping every lane's events properly nested.
func (t *Tracer) emit(s *Span, tid int, nextTid *int, events *[]traceEvent) {
	s.mu.Lock()
	start := s.start
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	var args map[string]string
	if len(s.attrs) > 0 {
		args = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			args[a.Key] = a.Val
		}
	}
	s.mu.Unlock()

	*events = append(*events, traceEvent{
		Name: s.name,
		Ph:   "X",
		Ts:   float64(start.Sub(t.epoch)) / float64(time.Microsecond),
		Dur:  float64(dur) / float64(time.Microsecond),
		Pid:  1,
		Tid:  tid,
		Args: args,
	})

	children := s.Children()
	sort.Slice(children, func(i, j int) bool { return children[i].start.Before(children[j].start) })
	type lane struct {
		tid int
		end time.Time
	}
	lanes := []lane{{tid: tid}}
	for _, c := range children {
		cEnd := c.start.Add(c.Duration())
		placed := -1
		for i := range lanes {
			if !c.start.Before(lanes[i].end) {
				placed = i
				break
			}
		}
		if placed < 0 {
			*nextTid++
			lanes = append(lanes, lane{tid: *nextTid})
			placed = len(lanes) - 1
		}
		lanes[placed].end = cEnd
		t.emit(c, lanes[placed].tid, nextTid, events)
	}
}
