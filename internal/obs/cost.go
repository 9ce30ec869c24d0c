package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CostLabelKey is the pprof goroutine label under which cost-attributed
// spans publish their tree path. Worker goroutines spawned inside a span
// inherit the label, so CPU profile samples stay sliceable by flow stage
// even deep inside the charlib/cec/gsim worker pools.
const CostLabelKey = "span"

// UnattributedPath is the pseudo-root that absorbs CPU profile samples
// carrying no span label (runtime background work, code outside any span).
const UnattributedPath = "(unattributed)"

// costCapture is the process-global cost-attribution state: a CPU profile
// accumulating into memory, plus a path-keyed table that ended spans fold
// their boundary deltas into. The table — not the tracer — is the source
// of truth for the report, so per-rep tracer resets (cryobench) cannot
// lose earlier repetitions' costs.
type costCapture struct {
	startTime time.Time
	startCPU  float64
	profiling bool // a CPU profile is running into prof

	mu         sync.Mutex
	prof       bytes.Buffer
	table      map[string]*costAgg
	finalized  bool
	cpuByPath  map[string]int64 // self CPU ns per span path, from the profile
	cpuTotalNs int64            // all profile samples, labeled or not
	window     time.Duration
	procCPU    float64
}

// costAgg accumulates the boundary deltas of every span instance sharing
// one tree path.
type costAgg struct {
	count      int64
	wall       time.Duration
	allocBytes int64
	allocObjs  int64
	gcCPUSec   float64
	counters   map[string]int64
}

var globalCost atomic.Pointer[costCapture]

// EnableCost turns on span-scoped cost attribution (keeping the current
// capture if already enabled). It implies metrics and tracing — deltas are
// meaningless without a registry, paths without spans — and starts an
// in-process CPU profile whose samples are later sliced by span label. If
// another CPU profile is already running (e.g. someone is fetching
// /debug/pprof/profile), attribution degrades to wall/alloc/counter deltas
// with a warning instead of failing.
func EnableCost() {
	if globalCost.Load() != nil {
		return
	}
	EnableMetrics()
	EnableTracing()
	cc := &costCapture{
		startTime: time.Now(),
		startCPU:  processCPUSeconds(),
		table:     map[string]*costAgg{},
	}
	if err := pprof.StartCPUProfile(&cc.prof); err != nil {
		Log().Warnf("obs: cost: CPU profile unavailable (%v); cost tree will carry no CPU columns", err)
	} else {
		cc.profiling = true
	}
	if !globalCost.CompareAndSwap(nil, cc) && cc.profiling {
		pprof.StopCPUProfile() // lost the race; release the profiler
	}
}

// CostEnabled reports whether cost attribution is capturing.
func CostEnabled() bool { return globalCost.Load() != nil }

// DisableCost stops the capture and discards the accumulated table (tests).
func DisableCost() {
	cc := globalCost.Swap(nil)
	if cc == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.profiling && !cc.finalized {
		pprof.StopCPUProfile()
		cc.profiling = false
	}
}

// FinalizeCost stops the CPU profile and slices its samples by span label,
// fixing the report's CPU columns and window. Idempotent; called by the
// flag Flush before the cost report and journal events are produced.
// Capture of wall/alloc/counter deltas continues for spans still running,
// but CPU attribution is frozen at this point.
func FinalizeCost() {
	cc := globalCost.Load()
	if cc == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.finalized {
		return
	}
	cc.finalized = true
	cc.window = time.Since(cc.startTime)
	cc.procCPU = processCPUSeconds() - cc.startCPU
	if !cc.profiling {
		return
	}
	pprof.StopCPUProfile()
	cc.profiling = false
	by, total, err := profileCPUByLabel(cc.prof.Bytes(), CostLabelKey)
	if err != nil {
		Log().Errorf("obs: cost: parsing CPU profile: %v", err)
	} else {
		cc.cpuByPath = by
		cc.cpuTotalNs = total
	}
	cc.prof.Reset()
}

// costStart is the boundary snapshot a span takes at Start while cost
// attribution is on; End diffs a fresh snapshot against it.
type costStart struct {
	allocBytes int64
	allocObjs  int64
	gcCPUSec   float64
	counters   map[string]int64
}

func takeCostStart() *costStart {
	cs := &costStart{}
	cs.allocBytes, cs.allocObjs, cs.gcCPUSec = readAllocCost()
	if r := Metrics(); r != nil {
		cs.counters = r.CounterValues()
	}
	return cs
}

// readAllocCost reads cumulative allocation volume and GC CPU time from
// runtime/metrics. These are process-wide monotonic totals; a span's delta
// therefore includes whatever ran concurrently with it (documented caveat
// — see docs/OBSERVABILITY.md).
func readAllocCost() (allocBytes, allocObjs int64, gcCPUSec float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = int64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocObjs = int64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		gcCPUSec = s[2].Value.Float64()
	}
	return allocBytes, allocObjs, gcCPUSec
}

// foldCost folds one ended span's boundary deltas into the global table.
func foldCost(path string, wall time.Duration, start *costStart) {
	cc := globalCost.Load()
	if cc == nil || start == nil || path == "" {
		return
	}
	end := takeCostStart()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	foldDelta(cc.table, path, wall, start, end)
}

func foldDelta(table map[string]*costAgg, path string, wall time.Duration, start, end *costStart) {
	a := table[path]
	if a == nil {
		a = &costAgg{counters: map[string]int64{}}
		table[path] = a
	}
	a.count++
	a.wall += wall
	a.allocBytes += end.allocBytes - start.allocBytes
	a.allocObjs += end.allocObjs - start.allocObjs
	a.gcCPUSec += end.gcCPUSec - start.gcCPUSec
	for name, v := range end.counters {
		if d := v - start.counters[name]; d != 0 {
			a.counters[name] += d
		}
	}
}

// CostNode is one span path in the cost tree. Totals (CPUSec, AllocBytes,
// Counters, ...) cover the node and its whole subtree; the Self* fields are
// child-exclusive. CPU self cost is measured directly (profile samples
// labeled exactly this path) and totals are summed upward; every other
// dimension is measured as a boundary delta at the span (so the total is
// exact) and self is derived by subtracting the children, clamped at zero.
type CostNode struct {
	Name string `json:"name"`
	Path string `json:"path"`
	// Count is how many span instances folded into this path.
	Count            int64            `json:"count,omitempty"`
	WallSec          float64          `json:"wall_seconds,omitempty"`
	CPUSec           float64          `json:"cpu_seconds,omitempty"`
	SelfCPUSec       float64          `json:"self_cpu_seconds,omitempty"`
	AllocBytes       int64            `json:"alloc_bytes,omitempty"`
	SelfAllocBytes   int64            `json:"self_alloc_bytes,omitempty"`
	AllocObjects     int64            `json:"alloc_objects,omitempty"`
	SelfAllocObjects int64            `json:"self_alloc_objects,omitempty"`
	GCCPUSec         float64          `json:"gc_cpu_seconds,omitempty"`
	SelfGCCPUSec     float64          `json:"self_gc_cpu_seconds,omitempty"`
	Counters         map[string]int64 `json:"counters,omitempty"`
	SelfCounters     map[string]int64 `json:"self_counters,omitempty"`
	Children         []*CostNode      `json:"children,omitempty"`
}

// CostReport is the rendered cost tree plus the process-level totals the
// attribution is checked against.
type CostReport struct {
	WindowSec float64 `json:"window_seconds"`
	// ProcessCPUSec is getrusage user+system CPU over the capture window —
	// the ground truth the attributed tree should approach.
	ProcessCPUSec float64 `json:"process_cpu_seconds"`
	// ProfiledCPUSec sums every CPU profile sample, labeled or not.
	ProfiledCPUSec float64 `json:"profiled_cpu_seconds"`
	// CPUAttributed is false when the CPU profile could not run (another
	// profiler held the lock) or has not been finalized yet (/costs during
	// the run): CPU columns are absent, the other dimensions still stand.
	CPUAttributed bool        `json:"cpu_attributed"`
	Roots         []*CostNode `json:"roots"`
}

// BuildCostReport assembles the cost tree from the folded table (nil when
// cost attribution is off). includeLive also folds still-open spans'
// deltas in provisionally — flush and the /costs endpoint want the tree to
// cover the root span even though it only ends at exit.
func BuildCostReport(includeLive bool) *CostReport {
	cc := globalCost.Load()
	if cc == nil {
		return nil
	}
	cc.mu.Lock()
	table := make(map[string]*costAgg, len(cc.table))
	for k, v := range cc.table {
		cp := *v
		cp.counters = make(map[string]int64, len(v.counters))
		for n, c := range v.counters {
			cp.counters[n] = c
		}
		table[k] = &cp
	}
	cpuByPath := cc.cpuByPath
	cpuTotalNs := cc.cpuTotalNs
	finalized := cc.finalized
	window := cc.window
	procCPU := cc.procCPU
	cc.mu.Unlock()
	if !finalized {
		window = time.Since(cc.startTime)
		procCPU = processCPUSeconds() - cc.startCPU
	}
	if includeLive {
		foldOpenSpans(table)
	}
	rep := &CostReport{
		WindowSec:      round6(window.Seconds()),
		ProcessCPUSec:  round6(procCPU),
		ProfiledCPUSec: round6(float64(cpuTotalNs) / 1e9),
		CPUAttributed:  cpuByPath != nil,
		Roots:          buildCostTree(table, cpuByPath, cpuTotalNs),
	}
	return rep
}

// foldOpenSpans folds every still-open cost-tracked span's current deltas
// into the (caller-local) table. A span that ends concurrently is either
// seen as ended here (its fold raced into the global table, possibly after
// our copy — at worst this snapshot misses it) or folded provisionally —
// never both, since End clears the snapshot under the span lock.
func foldOpenSpans(table map[string]*costAgg) {
	t := Tracing()
	if t == nil {
		return
	}
	var end *costStart
	var walk func(s *Span)
	walk = func(s *Span) {
		s.mu.Lock()
		start := s.cost
		path := s.path
		elapsed := time.Since(s.start)
		open := !s.ended && start != nil && path != ""
		s.mu.Unlock()
		if open {
			if end == nil {
				end = takeCostStart()
			}
			foldDelta(table, path, elapsed, start, end)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
}

// buildCostTree turns the flat path table and the profile's per-path CPU
// into the linked, rolled-up, deterministically sorted tree.
func buildCostTree(table map[string]*costAgg, cpuByPath map[string]int64, cpuTotalNs int64) []*CostNode {
	nodes := map[string]*CostNode{}
	var ensure func(path string) *CostNode
	ensure = func(path string) *CostNode {
		if n := nodes[path]; n != nil {
			return n
		}
		n := &CostNode{Path: path, Name: path}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			n.Name = path[i+1:]
			p := ensure(path[:i])
			p.Children = append(p.Children, n)
		}
		nodes[path] = n
		return n
	}
	for path, a := range table {
		n := ensure(path)
		n.Count = a.count
		n.WallSec = round6(a.wall.Seconds())
		n.AllocBytes = a.allocBytes
		n.AllocObjects = a.allocObjs
		n.GCCPUSec = round6(a.gcCPUSec)
		if len(a.counters) > 0 {
			n.Counters = make(map[string]int64, len(a.counters))
			for k, v := range a.counters {
				n.Counters[k] = v
			}
		}
	}
	var labeledNs int64
	for path, ns := range cpuByPath {
		n := ensure(path)
		n.SelfCPUSec = round6(float64(ns) / 1e9)
		labeledNs += ns
	}
	if un := cpuTotalNs - labeledNs; un > 0 {
		ensure(UnattributedPath).SelfCPUSec = round6(float64(un) / 1e9)
	}

	var roots []*CostNode
	for path, n := range nodes {
		if !strings.Contains(path, "/") {
			roots = append(roots, n)
		}
	}
	for _, r := range roots {
		rollupCost(r)
	}
	sortCostNodes(roots)
	return roots
}

// rollupCost computes subtree totals and child-exclusive self costs in
// post-order. A path that never folded a boundary delta of its own (e.g.
// its span is still open and live folding was off) inherits its children's
// sums so the column stays meaningful.
func rollupCost(n *CostNode) {
	var cpu, wall, gc float64
	var bytes, objs int64
	chCounters := map[string]int64{}
	for _, c := range n.Children {
		rollupCost(c)
		cpu += c.CPUSec
		wall += c.WallSec
		gc += c.GCCPUSec
		bytes += c.AllocBytes
		objs += c.AllocObjects
		for k, v := range c.Counters {
			chCounters[k] += v
		}
	}
	n.CPUSec = round6(n.SelfCPUSec + cpu)
	if n.Count == 0 {
		n.WallSec = round6(wall)
		n.GCCPUSec = round6(gc)
		n.AllocBytes = bytes
		n.AllocObjects = objs
		if len(chCounters) > 0 {
			n.Counters = chCounters
		}
		return
	}
	n.SelfAllocBytes = clampPos(n.AllocBytes - bytes)
	n.SelfAllocObjects = clampPos(n.AllocObjects - objs)
	if d := n.GCCPUSec - gc; d > 0 {
		n.SelfGCCPUSec = round6(d)
	}
	for k, v := range n.Counters {
		if d := v - chCounters[k]; d > 0 {
			if n.SelfCounters == nil {
				n.SelfCounters = map[string]int64{}
			}
			n.SelfCounters[k] = d
		}
	}
}

func clampPos(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// sortCostNodes orders siblings hottest-first: by self CPU, then total
// CPU, then wall, then name — deterministic for goldens either way.
func sortCostNodes(ns []*CostNode) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		if a.SelfCPUSec != b.SelfCPUSec {
			return a.SelfCPUSec > b.SelfCPUSec
		}
		if a.CPUSec != b.CPUSec {
			return a.CPUSec > b.CPUSec
		}
		if a.WallSec != b.WallSec {
			return a.WallSec > b.WallSec
		}
		return a.Path < b.Path
	})
	for _, n := range ns {
		sortCostNodes(n.Children)
	}
}

// DefaultCostCounterGlobs selects the engine counters the text/markdown
// renderers show per node when the caller names none.
var DefaultCostCounterGlobs = []string{"spice.solver.*", "spice.newton.*", "sat.*", "charlib.cache.*"}

// CostRenderOptions tunes the text/markdown renderers.
type CostRenderOptions struct {
	// CounterGlobs selects which self-counter deltas appear per node ('*'
	// crosses separators, like trend globs). Nil means
	// DefaultCostCounterGlobs; an explicit empty slice hides counters.
	CounterGlobs []string
	// MaxCounters caps the counters shown per node (default 3).
	MaxCounters int
}

func (o CostRenderOptions) globs() []string {
	if o.CounterGlobs == nil {
		return DefaultCostCounterGlobs
	}
	return o.CounterGlobs
}

func (o CostRenderOptions) maxCounters() int {
	if o.MaxCounters <= 0 {
		return 3
	}
	return o.MaxCounters
}

// WriteText renders the report as an indented cost tree sorted by self
// CPU, one row per span path, with per-node engine-counter deltas.
func (r *CostReport) WriteText(w io.Writer, opts CostRenderOptions) error {
	ew := &costErrWriter{w: w}
	fmt.Fprintf(ew, "cost attribution: window %.3fs, process CPU %.3fs", r.WindowSec, r.ProcessCPUSec)
	if r.CPUAttributed {
		fmt.Fprintf(ew, ", profiled CPU %.3fs", r.ProfiledCPUSec)
	} else {
		fmt.Fprintf(ew, " (CPU columns unavailable)")
	}
	fmt.Fprintln(ew)
	fmt.Fprintln(ew)

	type row struct {
		depth int
		n     *CostNode
	}
	var rows []row
	var flatten func(n *CostNode, depth int)
	flatten = func(n *CostNode, depth int) {
		rows = append(rows, row{depth, n})
		for _, c := range n.Children {
			flatten(c, depth+1)
		}
	}
	for _, n := range r.Roots {
		flatten(n, 0)
	}
	nameW := len("span")
	for _, rw := range rows {
		if l := 2*rw.depth + len(rw.n.Name); l > nameW {
			nameW = l
		}
	}
	fmt.Fprintf(ew, "%-*s  %6s  %9s  %9s  %9s  %9s  %10s  counters\n",
		nameW, "span", "count", "self-cpu", "cpu", "wall", "gc-cpu", "allocs")
	for _, rw := range rows {
		n := rw.n
		fmt.Fprintf(ew, "%-*s  %6s  %9s  %9s  %9s  %9s  %10s  %s\n",
			nameW, strings.Repeat("  ", rw.depth)+n.Name,
			zeroDash(n.Count),
			costSeconds(n.SelfCPUSec, r.CPUAttributed),
			costSeconds(n.CPUSec, r.CPUAttributed),
			costSeconds(n.WallSec, true),
			costSeconds(n.GCCPUSec, true),
			humanBytes(n.AllocBytes),
			formatCounters(n.SelfCounters, opts))
	}
	return ew.err
}

// WriteMarkdown renders the report as a markdown table (depth shown by
// indentation inside the span column).
func (r *CostReport) WriteMarkdown(w io.Writer, opts CostRenderOptions) error {
	ew := &costErrWriter{w: w}
	fmt.Fprintln(ew, "## Cost attribution")
	fmt.Fprintln(ew)
	fmt.Fprintf(ew, "window %.3fs · process CPU %.3fs · profiled CPU %.3fs\n", r.WindowSec, r.ProcessCPUSec, r.ProfiledCPUSec)
	fmt.Fprintln(ew)
	fmt.Fprintln(ew, "| span | count | self cpu | cpu | wall | gc cpu | allocs | counters |")
	fmt.Fprintln(ew, "|---|---:|---:|---:|---:|---:|---:|---|")
	var walk func(n *CostNode, depth int)
	walk = func(n *CostNode, depth int) {
		fmt.Fprintf(ew, "| %s%s | %s | %s | %s | %s | %s | %s | %s |\n",
			strings.Repeat("&nbsp;&nbsp;", depth), n.Name,
			zeroDash(n.Count),
			costSeconds(n.SelfCPUSec, r.CPUAttributed),
			costSeconds(n.CPUSec, r.CPUAttributed),
			costSeconds(n.WallSec, true),
			costSeconds(n.GCCPUSec, true),
			humanBytes(n.AllocBytes),
			formatCounters(n.SelfCounters, opts))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, n := range r.Roots {
		walk(n, 0)
	}
	return ew.err
}

// WriteJSON emits the full report, tree and all.
func (r *CostReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func zeroDash(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func costSeconds(v float64, avail bool) string {
	if !avail {
		return "-"
	}
	return fmt.Sprintf("%.3fs", v)
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// formatCounters renders the top self-counter deltas matching the options'
// globs, largest first, as "name +delta" pairs.
func formatCounters(counters map[string]int64, opts CostRenderOptions) string {
	if len(counters) == 0 {
		return ""
	}
	type kv struct {
		k string
		v int64
	}
	var sel []kv
	globs := opts.globs()
	for k, v := range counters {
		for _, g := range globs {
			if costGlobMatch(g, k) {
				sel = append(sel, kv{k, v})
				break
			}
		}
	}
	if len(sel) == 0 {
		return ""
	}
	sort.Slice(sel, func(i, j int) bool {
		if sel[i].v != sel[j].v {
			return sel[i].v > sel[j].v
		}
		return sel[i].k < sel[j].k
	})
	if max := opts.maxCounters(); len(sel) > max {
		sel = sel[:max]
	}
	parts := make([]string, len(sel))
	for i, s := range sel {
		parts[i] = fmt.Sprintf("%s +%d", s.k, s.v)
	}
	return strings.Join(parts, ", ")
}

// costGlobMatch mirrors the trend glob semantics: '*' matches any run of
// characters including separators, anchored at both ends. (Duplicated from
// internal/forensics, which imports obs and so cannot be imported back.)
func costGlobMatch(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(name, p)
		if i < 0 {
			return false
		}
		name = name[i+len(p):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

// JournalCost emits the report into the journal as typed cost events: one
// summary event (report totals in attrs, no detail) followed by one event
// per node in preorder, each carrying the node sans children as its detail
// payload. cryoobs cost relinks the tree from the node paths.
func (r *CostReport) JournalCost(j *Journal) {
	if j == nil || r == nil {
		return
	}
	n := 0
	var count func(ns []*CostNode)
	count = func(ns []*CostNode) {
		for _, c := range ns {
			n++
			count(c.Children)
		}
	}
	count(r.Roots)
	j.Event(KindCost, "", "cost report", map[string]string{
		"window_seconds":       fmt.Sprintf("%g", r.WindowSec),
		"process_cpu_seconds":  fmt.Sprintf("%g", r.ProcessCPUSec),
		"profiled_cpu_seconds": fmt.Sprintf("%g", r.ProfiledCPUSec),
		"cpu_attributed":       fmt.Sprintf("%t", r.CPUAttributed),
		"nodes":                fmt.Sprintf("%d", n),
	})
	var walk func(node *CostNode)
	walk = func(node *CostNode) {
		flat := *node
		flat.Children = nil
		j.EventDetail(KindCost, node.Name, node.Path, nil, &flat)
		for _, c := range node.Children {
			walk(c)
		}
	}
	for _, root := range r.Roots {
		walk(root)
	}
}

// StageCost is the per-stage cost rollup behind the trend's cost.* columns:
// the child-exclusive costs of every node sharing one span name, summed. Self
// costs (not totals) keep the column additive — nested stages never double
// count — so cryoobs trend can flag e.g. allocs-per-stage doubling even
// when wall time hides inside its noise band.
type StageCost struct {
	SelfCPUSec       float64 `json:"self_cpu_seconds,omitempty"`
	WallSec          float64 `json:"wall_seconds,omitempty"`
	SelfAllocBytes   int64   `json:"self_alloc_bytes,omitempty"`
	SelfAllocObjects int64   `json:"self_alloc_objects,omitempty"`
	GCCPUSec         float64 `json:"gc_cpu_seconds,omitempty"`
}

// StageCosts aggregates the tree by span name.
func (r *CostReport) StageCosts() map[string]StageCost {
	if r == nil {
		return nil
	}
	out := map[string]StageCost{}
	var walk func(n *CostNode)
	walk = func(n *CostNode) {
		c := out[n.Name]
		c.SelfCPUSec = round6(c.SelfCPUSec + n.SelfCPUSec)
		c.WallSec = round6(c.WallSec + n.WallSec)
		c.SelfAllocBytes += n.SelfAllocBytes
		c.SelfAllocObjects += n.SelfAllocObjects
		c.GCCPUSec = round6(c.GCCPUSec + n.SelfGCCPUSec)
		out[n.Name] = c
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range r.Roots {
		walk(n)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// costErrWriter latches the first write error so renderers can check once.
type costErrWriter struct {
	w   io.Writer
	err error
}

func (e *costErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
