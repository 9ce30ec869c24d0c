package gsim

import (
	"context"
	"fmt"

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

// pendingEvent is a live heap entry of one net's transport schedule.
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

// arcDelayFs returns gate gi's arc-i transport delay in femtoseconds.
func (m *Model) arcDelayFs(gi, i int) int64 {
	if m.DelayFs != nil {
		return m.DelayFs[gi][i]
	}
	return DefaultDelayFs
}

func (e *eventEngine) Run(ctx context.Context, vectors []Vector) (*Result, error) {
	m := e.m
	_, span := obs.Start(ctx, "gsim.event")
	span.SetAttr("design", m.Name)
	span.SetAttr("vectors", len(vectors))
	defer span.End()
	obs.C("gsim.runs").Inc()

	settle := m.SettleBoundFs()
	period := e.opt.PeriodFs
	if min := settle + settle/4 + 1000; period < min {
		period = min
	}

	res := &Result{
		Engine:     "event",
		Vectors:    len(vectors),
		Toggles:    make([]int64, len(m.Nets)),
		OutputBits: make([][]bool, len(vectors)),
		model:      m,
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
	}

	var q eventQueue
	var seq int64
	// pending[net] lists the net's live events as (time, seq) in scheduling
	// order. Scheduling follows VHDL transport semantics: a new event
	// supersedes pending ones arriving at or after it (with per-arc delays a
	// slow arc's stale value can otherwise land after — and revert — the
	// final value delivered by a faster arc). Superseded events stay in the
	// heap and are dropped at pop time: an event is live only while it is
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
		if len(q) > res.MaxQueue {
			res.MaxQueue = len(q)
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

	task := obs.Progress("gsim.vectors", int64(len(vectors)))
	defer task.Finish()
	for v, vec := range vectors {
		task.Inc()
		if len(vec) != len(m.Inputs) {
			return nil, fmt.Errorf("gsim: vector %d has %d bits, want %d", v, len(vec), len(m.Inputs))
		}
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
		for len(q) > 0 {
			t := q[0].t
			// Stage every live event at time t; superseded ones (no longer
			// the head of their net's pending queue) are dropped here.
			for len(q) > 0 && q[0].t == t {
				ev := q.pop()
				p := pending[ev.net]
				if len(p) == 0 || p[0].seq != ev.seq {
					continue // superseded by a later-scheduled event
				}
				pending[ev.net] = p[1:]
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
				res.Events++
				if (old == V0 && val == V1) || (old == V1 && val == V0) {
					res.Toggles[net]++
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
		ob := make([]bool, len(m.Outputs))
		for o, idx := range m.Outputs {
			ob[o] = cur[idx] == V1
		}
		res.OutputBits[v] = ob
	}
	res.Final = cur
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

// eventQueue is a binary min-heap ordered by (time, seq): time order first,
// scheduling order among simultaneous events — fully deterministic.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*q).less(l, small) {
			small = l
		}
		if r < n && (*q).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*q)[i], (*q)[small] = (*q)[small], (*q)[i]
		i = small
	}
	return top
}
