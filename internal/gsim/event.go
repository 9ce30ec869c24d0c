package gsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// EventOptions tunes the event-driven engine.
type EventOptions struct {
	// PeriodFs is the stimulus period: vector k is applied at k*PeriodFs.
	// It is clamped up to the model's static settle bound (longest
	// annotated path plus margin) so event timestamps stay monotonic;
	// 0 picks the bound automatically.
	PeriodFs int64
	// Trace, when non-nil, receives every committed value change (VCD).
	Trace *VCDTracer
}

// event is one scheduled net update. seq breaks time ties in scheduling
// order, keeping the simulation deterministic.
type event struct {
	t   int64
	seq int64
	net int32
	val Value
}

// pendingEvent is a live queue entry of one net's transport schedule.
type pendingEvent struct {
	t   int64
	seq int64
}

// eventEngine is the delay-annotated engine: value changes propagate
// individually through a time-ordered queue with per-arc transport delays,
// so unequal path delays produce hazard glitches — each one a counted
// toggle — instead of being absorbed the way the zero-delay engine absorbs
// them. Logic is three-valued: every net starts at X and the first stimulus
// wave resolves the circuit.
type eventEngine struct {
	m   *Model
	opt EventOptions
}

// NewEvent returns the event-driven engine over a compiled (and usually
// liberty-annotated) model. Without annotation every arc gets
// DefaultDelayFs.
func NewEvent(m *Model, opt EventOptions) Engine { return &eventEngine{m: m, opt: opt} }

func (e *eventEngine) Name() string { return "event" }

// SettleBoundFs returns the static longest input-to-output path through the
// annotated arc delays — an upper bound on how long one stimulus wave can
// keep generating events.
func (m *Model) SettleBoundFs() int64 {
	arr := make([]int64, len(m.Nets))
	var worst int64
	for gi := range m.Gates {
		g := &m.Gates[gi]
		var out int64
		for i, in := range g.In {
			if a := arr[in] + m.arcDelayFs(gi, i); a > out {
				out = a
			}
		}
		arr[g.Out] = out
		if out > worst {
			worst = out
		}
	}
	return worst
}

// maxArcDelayFs returns the longest arc delay, the furthest ahead of the
// current time the event engine can schedule.
func (m *Model) maxArcDelayFs() int64 {
	if m.DelayFs == nil {
		return DefaultDelayFs
	}
	var worst int64
	for _, arcs := range m.DelayFs {
		for _, d := range arcs {
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// arcDelayFs returns gate gi's arc-i transport delay in femtoseconds.
func (m *Model) arcDelayFs(gi, i int) int64 {
	if m.DelayFs != nil {
		return m.DelayFs[gi][i]
	}
	return DefaultDelayFs
}

// minChunkVectors is the fewest vectors a chunk of a parallel run holds:
// below it a chunk's setup (its own state arrays and one SimWords pass for
// its seed) outweighs the vectors it takes off the others.
const minChunkVectors = 16

// Run simulates the vectors in contiguous chunks, one per available CPU
// (runtime.GOMAXPROCS) but at least minChunkVectors each, run concurrently.
// The result is bit-identical for every chunk count; see run.
func (e *eventEngine) Run(ctx context.Context, vectors []Vector) (*Result, error) {
	return e.run(ctx, vectors, min(runtime.GOMAXPROCS(0), len(vectors)/minChunkVectors))
}

// run simulates vectors split into up to chunks contiguous ranges [v0, v1),
// each with its own queue, pending lists and scratch; every chunk after the
// first runs on a goroutine of its own.
// Splitting is exact: every wave drains to an empty queue before the next
// vector is applied, so a vector's run depends only on the settled net values
// it starts from, and those are the zero-delay values of the vector before
// it. Chunk 0 starts all-X as a serial run does; chunk c > 0 starts from the
// two-valued settled state of vector v0-1 (one SimWords pass). Counts are
// then summed, MaxQueue is the maximum over chunks and Final is the last
// chunk's state. Two cases run as one chunk: a VCD trace, which streams in
// time order, and a model with a gate without inputs, which a serial run
// never evaluates, so its net stays X where SimWords would seed a value.
func (e *eventEngine) run(ctx context.Context, vectors []Vector, chunks int) (*Result, error) {
	m := e.m
	_, span := obs.Start(ctx, "gsim.event")
	span.SetAttr("design", m.Name)
	span.SetAttr("vectors", len(vectors))
	defer span.End()
	obs.C("gsim.runs").Inc()

	for v, vec := range vectors {
		if len(vec) != len(m.Inputs) {
			return nil, fmt.Errorf("gsim: vector %d has %d bits, want %d", v, len(vec), len(m.Inputs))
		}
	}
	settle := m.SettleBoundFs()
	period := e.opt.PeriodFs
	if min := settle + settle/4 + 1000; period < min {
		period = min
	}

	res := &Result{
		Engine:     "event",
		Vectors:    len(vectors),
		OutputBits: carve(make([]bool, len(vectors)*len(m.Outputs)), len(vectors), len(m.Outputs)),
		nets:       m.Nets,
	}

	// All nets start unknown — including the constant rails, whose
	// resolving events at t=0 seed evaluation of constant-only cones.
	cur := make([]Value, len(m.Nets))
	for i := range cur {
		cur[i] = VX
	}
	if e.opt.Trace != nil {
		if err := e.opt.Trace.begin(cur); err != nil {
			return nil, err
		}
		chunks = 1
	}
	for gi := range m.Gates {
		if len(m.Gates[gi].In) == 0 {
			chunks = 1
			break
		}
	}
	chunks = max(1, min(chunks, len(vectors)))

	task := obs.Progress("gsim.vectors", int64(len(vectors)))
	defer task.Finish()
	parts := make([]eventChunk, chunks)
	var wg sync.WaitGroup
	for c := range parts {
		p := &parts[c]
		p.v0, p.v1 = c*len(vectors)/chunks, (c+1)*len(vectors)/chunks
		if c == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.simulate(p, m.settledState(vectors[p.v0-1]), vectors, period, res.OutputBits, task)
		}()
	}
	e.simulate(&parts[0], cur, vectors, period, res.OutputBits, task)
	wg.Wait()

	res.Toggles = parts[0].toggles
	res.Final = parts[chunks-1].cur
	for _, p := range parts {
		res.Events += p.events
		res.MaxQueue = max(res.MaxQueue, p.maxQueue)
	}
	for _, p := range parts[1:] {
		for net, n := range p.toggles {
			res.Toggles[net] += n
		}
	}
	res.SimTimeFs = int64(len(vectors)) * period
	if e.opt.Trace != nil {
		e.opt.Trace.time(res.SimTimeFs)
	}

	obs.C("gsim.vectors").Add(int64(len(vectors)))
	obs.C("gsim.events").Add(res.Events)
	obs.C("gsim.toggles").Add(res.TotalToggles())
	obs.H("gsim.wheel_depth").Observe(float64(res.MaxQueue))
	span.SetAttr("events", res.Events)
	span.SetAttr("toggles", res.TotalToggles())
	span.SetAttr("max_queue", res.MaxQueue)
	return res, nil
}

// settledState returns the two-valued net values vec settles to: the state
// an event run holds after vec, once the first vector has resolved every X
// of a model whose gates all have inputs.
func (m *Model) settledState(vec Vector) []Value {
	in := make([]uint64, len(m.Inputs))
	for i, b := range vec {
		if b {
			in[i] = 1
		}
	}
	vals, _ := m.SimWords(in) // len(in) is len(m.Inputs)
	cur := make([]Value, len(vals))
	for net, w := range vals {
		cur[net] = Value(w & 1) // V0 is 0, V1 is 1
	}
	return cur
}

// eventChunk is one vector range [v0, v1) of an event run and what its
// simulation measured: the state after v1-1, the per-net toggles, the
// committed events and the queue high-water mark.
type eventChunk struct {
	v0, v1   int
	cur      []Value
	toggles  []int64
	events   int64
	maxQueue int
}

// simulate runs vectors[ch.v0:ch.v1] from the net values cur (all X before
// vector 0) at their absolute times v*period, writing their rows of
// outputBits.
func (e *eventEngine) simulate(ch *eventChunk, cur []Value, vectors []Vector, period int64, outputBits [][]bool, task *obs.Task) {
	m := e.m
	toggles := make([]int64, len(m.Nets))
	var events int64
	var maxQueue int

	q := newWheel(m.maxArcDelayFs())
	var seq int64
	// pending[net] lists the net's live events as (time, seq) in scheduling
	// order. Scheduling follows VHDL transport semantics: a new event
	// supersedes pending ones arriving at or after it (with per-arc delays a
	// slow arc's stale value can otherwise land after — and revert — the
	// final value delivered by a faster arc). Superseded events stay in the
	// wheel and are dropped at pop time: an event is live only while it is
	// the head of its net's pending queue.
	pending := make([][]pendingEvent, len(m.Nets))
	push := func(t int64, net int32, val Value) {
		p := pending[net]
		for len(p) > 0 && p[len(p)-1].t >= t {
			p = p[:len(p)-1]
		}
		pending[net] = append(p, pendingEvent{t: t, seq: seq})
		q.push(event{t: t, seq: seq, net: net, val: val})
		seq++
		if q.n > maxQueue {
			maxQueue = q.n
		}
	}

	// Delta-batch scratch state: events sharing a timestamp are staged
	// together (last scheduled wins per net) and each affected gate
	// re-evaluates once per time step, so simultaneous input changes do not
	// manufacture zero-width glitches. Distinct arrival times still glitch —
	// that is the point of this engine.
	staged := make([]Value, len(m.Nets))
	stagedSet := make([]bool, len(m.Nets))
	changedSet := make([]bool, len(m.Nets))
	var stagedOrder, changedOrder []int32
	gateSet := make([]bool, len(m.Gates))
	var gateOrder []int32
	scratch := make([]Value, 6)

	for v := ch.v0; v < ch.v1; v++ {
		vec := vectors[v]
		task.Inc()
		t0 := int64(v) * period
		if v == 0 {
			push(t0, netlist.NetConst0, V0)
			push(t0, netlist.NetConst1, V1)
		}
		for i, idx := range m.Inputs {
			val := V0
			if vec[i] {
				val = V1
			}
			if cur[idx] != val {
				push(t0, idx, val)
			}
		}
		// Drain: inputs only change at vector boundaries, so the wave runs
		// to quiescence before the next vector is applied.
		for q.n > 0 {
			t := q.peek().t
			// Stage every live event at time t; superseded ones (no longer
			// the head of their net's pending queue) are dropped here.
			for q.n > 0 && q.peek().t == t {
				ev := q.pop()
				p := pending[ev.net]
				if len(p) == 0 || p[0].seq != ev.seq {
					continue // superseded by a later-scheduled event
				}
				// Shift in place so the list keeps its backing array.
				copy(p, p[1:])
				pending[ev.net] = p[:len(p)-1]
				if !stagedSet[ev.net] {
					stagedSet[ev.net] = true
					stagedOrder = append(stagedOrder, ev.net)
				}
				staged[ev.net] = ev.val
			}
			// Commit changed nets and collect affected gates (once each).
			for _, net := range stagedOrder {
				stagedSet[net] = false
				val := staged[net]
				if cur[net] == val {
					continue
				}
				old := cur[net]
				cur[net] = val
				changedSet[net] = true
				changedOrder = append(changedOrder, net)
				events++
				if (old == V0 && val == V1) || (old == V1 && val == V0) {
					toggles[net]++
				}
				if e.opt.Trace != nil {
					e.opt.Trace.change(t, net, val)
				}
				for _, gi := range m.Fanouts[net] {
					if !gateSet[gi] {
						gateSet[gi] = true
						gateOrder = append(gateOrder, gi)
					}
				}
			}
			stagedOrder = stagedOrder[:0]
			// Re-evaluate each affected gate once; the new value departs on
			// every changed-input arc's own delay. Scheduling is
			// unconditional on changed arcs — an event that arrives equal to
			// the then-current value simply commits nothing, while skipping
			// it here would lose the trailing edge of reconvergent pulses.
			for _, gi := range gateOrder {
				gateSet[gi] = false
				g := &m.Gates[gi]
				ins := scratch[:len(g.In)]
				for i, in := range g.In {
					ins[i] = cur[in]
				}
				out := evalTruth3(g.Truth, ins)
				for i, in := range g.In {
					if changedSet[in] {
						push(t+m.arcDelayFs(int(gi), i), g.Out, out)
					}
				}
			}
			gateOrder = gateOrder[:0]
			for _, net := range changedOrder {
				changedSet[net] = false
			}
			changedOrder = changedOrder[:0]
		}
		ob := outputBits[v]
		for o, idx := range m.Outputs {
			ob[o] = cur[idx] == V1
		}
	}
	ch.cur, ch.toggles, ch.events, ch.maxQueue = cur, toggles, events, maxQueue
}

// wheelBuckets is the calendar queue's bucket count (a power of two).
const wheelBuckets = 256

// wheel is the event engine's calendar queue: a ring of wheelBuckets
// buckets, each 1<<shift fs wide, indexed by absolute bucket number
// t>>shift modulo the ring. The width is chosen from the model's largest arc
// delay (newWheel) so every held event lies within one ring span of the
// cursor and no two held events of different absolute buckets share a
// slot. Each bucket is kept in (t, seq) order by insertion from the back
// (pushes arrive in seq order, so a new event goes behind every event of
// equal time), and pops come out in exactly the order a (t, seq) min-heap
// gives.
type wheel struct {
	shift   uint
	buckets [wheelBuckets][]event
	cur     int64 // absolute bucket number of the cursor
	head    int   // events already popped from the cursor's bucket
	n       int   // events held, superseded ones included
}

// newWheel sizes the buckets so that maxDelayFs, the longest an event can
// be scheduled ahead of the current time, spans at most wheelBuckets-1
// bucket boundaries: (t+d)>>shift - t>>shift <= d>>shift + 1 < wheelBuckets.
func newWheel(maxDelayFs int64) *wheel {
	w := &wheel{}
	for maxDelayFs>>w.shift >= wheelBuckets-1 {
		w.shift++
	}
	return w
}

// push schedules e, which must not precede the last popped event. An empty
// wheel moves its cursor to e. A push into a bucket behind the cursor — a
// peek can advance the cursor over empty buckets after the last event at
// the current time was popped, before the gates evaluated at that time
// schedule their outputs — rewinds the cursor; nothing in the cursor's
// bucket has been popped then, since every pop sets the current time.
func (w *wheel) push(e event) {
	abs := e.t >> w.shift
	if w.n == 0 || abs < w.cur {
		w.cur, w.head = abs, 0
	}
	b := &w.buckets[abs&(wheelBuckets-1)]
	s := append(*b, e)
	i := len(s) - 1
	for i > 0 && s[i-1].t > e.t {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	*b = s
	w.n++
}

// peek returns the earliest held event, advancing the cursor over empty
// buckets. The wheel must not be empty.
func (w *wheel) peek() *event {
	for {
		b := w.buckets[w.cur&(wheelBuckets-1)]
		if w.head < len(b) {
			return &b[w.head]
		}
		w.cur++
	}
}

// pop removes and returns the earliest held event. A bucket is emptied in
// place once its last event is popped, so the slots keep their capacity.
func (w *wheel) pop() event {
	e := *w.peek()
	w.n--
	b := &w.buckets[w.cur&(wheelBuckets-1)]
	if w.head++; w.head == len(*b) {
		*b = (*b)[:0]
		w.head = 0
	}
	return e
}
