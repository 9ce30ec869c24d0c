package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span, rendered into the Chrome
// trace "args" object.
type Attr struct {
	Key string
	Val string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: strconv.Itoa(v)} }

// F64 builds a float attribute, rendered at full precision (shortest
// round-trip form) so counter-delta attrs do not silently truncate.
func F64(k string, v float64) Attr { return Attr{Key: k, Val: strconv.FormatFloat(v, 'g', -1, 64)} }

// Span is one timed region of the flow. Spans form a tree: children are
// created by calling Start with the context returned by the parent's Start.
// A nil *Span is valid and ignores every method call, which is what Start
// hands out while tracing is disabled.
type Span struct {
	name   string
	start  time.Time
	parent *Span
	// path is the '/'-joined span path published as the CostLabelKey
	// goroutine label ("" when -cost was off at Start).
	path string
	// restore carries the pre-span context whose goroutine labels End
	// reinstates; written before the span is published, read only by End.
	restore context.Context

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dur      time.Duration
	ended    bool
}

type spanCtxKey struct{}

// Start opens a span named name under the span carried by ctx (a root span
// when ctx has none) and returns a derived context carrying the new span.
// When tracing is disabled it returns (ctx, nil) without allocating; note
// that passing explicit attrs still materializes the variadic slice, so
// genuinely hot call sites should use SetAttr after checking the span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := globalTracer.Load()
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	s := &Span{name: name, start: time.Now(), parent: parent, attrs: attrs}
	if CostEnabled() {
		s.path = spanPath(parent, name)
		s.restore = ctx
	}
	if parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else {
		t.mu.Lock()
		t.roots = append(t.roots, s)
		t.mu.Unlock()
	}
	out := context.WithValue(ctx, spanCtxKey{}, s)
	if s.path != "" {
		// Label this goroutine (and every goroutine it spawns inside the
		// span) with the span path, so CPU profile samples stay attributable
		// to the stage even inside worker pools. End restores the previous
		// labels on this goroutine; workers that outlive the span keep the
		// inherited label, which is the correct attribution for their work.
		out = pprof.WithLabels(out, pprof.Labels(CostLabelKey, s.path))
		pprof.SetGoroutineLabels(out)
	}
	return out, s
}

// spanPath joins the ancestor chain with '/'. When the parent predates
// cost capture (its path is empty), the chain is rebuilt from span names
// so late-enabled capture still nests correctly.
func spanPath(parent *Span, name string) string {
	if parent == nil {
		return name
	}
	if parent.path != "" {
		return parent.path + "/" + name
	}
	var names []string
	for p := parent; p != nil; p = p.parent {
		names = append(names, p.name)
	}
	var b strings.Builder
	for i := len(names) - 1; i >= 0; i-- {
		b.WriteString(names[i])
		b.WriteByte('/')
	}
	b.WriteString(name)
	return b.String()
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Detach returns a context that no longer carries a span, so subsequent
// Start calls open fresh root spans. Harnesses that swap the tracer between
// repetitions (cryobench) use it to keep new spans out of stale parents.
func Detach(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, (*Span)(nil))
}

// End closes the span, recording its wall time and restoring the
// goroutine's previous profiler labels. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	var restore context.Context
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
		restore, s.restore = s.restore, nil
	}
	s.mu.Unlock()
	if restore != nil {
		pprof.SetGoroutineLabels(restore)
	}
}

// SetAttr attaches a key/value annotation (nil-safe; any value is rendered
// with %v).
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	var sv string
	switch v := val.(type) {
	case string:
		sv = v
	case int:
		sv = strconv.Itoa(v)
	case float64:
		sv = strconv.FormatFloat(v, 'g', -1, 64)
	default:
		sv = fmt.Sprintf("%v", val)
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: sv})
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded wall time; for a still-open span it
// returns the elapsed time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Children returns a snapshot of the direct child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Tracer collects the span forest of one process run.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer; its epoch anchors trace timestamps.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Roots returns a snapshot of the top-level spans.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// SpanTotal aggregates all spans sharing one name.
type SpanTotal struct {
	Count int
	Total time.Duration
}

// Totals aggregates the whole forest by span name — the per-stage wall
// times used by run reports.
func (t *Tracer) Totals() map[string]SpanTotal {
	out := map[string]SpanTotal{}
	if t == nil {
		return out
	}
	var walk func(s *Span)
	walk = func(s *Span) {
		agg := out[s.name]
		agg.Count++
		agg.Total += s.Duration()
		out[s.name] = agg
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	return out
}
