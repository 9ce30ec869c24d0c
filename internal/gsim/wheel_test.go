package gsim

import (
	"container/heap"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// refEvent and refQueue are the reference simulator's (t, seq) min-heap,
// built on container/heap rather than the engine's calendar queue.
type refEvent struct {
	t, seq int64
	net    int32
	val    Value
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].t < q[j].t || q[i].t == q[j].t && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// referenceEventRun is an independent transport-delay simulator with the
// event engine's documented semantics (docs/GSIM.md): all nets start at X,
// a new event supersedes a net's pending events at or after its time,
// same-time events commit together (last scheduled wins) and each touched
// gate re-evaluates once, scheduling on every changed-input arc.
func referenceEventRun(m *Model, vectors []Vector, periodFs int64) *Result {
	settle := m.SettleBoundFs()
	if min := settle + settle/4 + 1000; periodFs < min {
		periodFs = min
	}
	res := &Result{Toggles: make([]int64, len(m.Nets)), OutputBits: make([][]bool, len(vectors))}
	cur := make([]Value, len(m.Nets))
	for i := range cur {
		cur[i] = VX
	}
	var q refQueue
	var seq int64
	pending := make([][]int64, len(m.Nets)) // live (t, seq) pairs, flattened
	push := func(t int64, net int32, val Value) {
		p := pending[net]
		for len(p) > 0 && p[len(p)-2] >= t {
			p = p[:len(p)-2]
		}
		pending[net] = append(p, t, seq)
		heap.Push(&q, refEvent{t, seq, net, val})
		seq++
		res.MaxQueue = max(res.MaxQueue, len(q))
	}
	for v, vec := range vectors {
		t0 := int64(v) * periodFs
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
		for len(q) > 0 {
			t := q[0].t
			var staged []int32
			stagedVal := map[int32]Value{}
			for len(q) > 0 && q[0].t == t {
				ev := heap.Pop(&q).(refEvent)
				p := pending[ev.net]
				if len(p) == 0 || p[1] != ev.seq {
					continue
				}
				pending[ev.net] = p[2:]
				if _, ok := stagedVal[ev.net]; !ok {
					staged = append(staged, ev.net)
				}
				stagedVal[ev.net] = ev.val
			}
			changed := map[int32]bool{}
			var gates []int32
			for _, net := range staged {
				old, val := cur[net], stagedVal[net]
				if old == val {
					continue
				}
				cur[net] = val
				changed[net] = true
				res.Events++
				if old != VX && val != VX {
					res.Toggles[net]++
				}
				for _, gi := range m.Fanouts[net] {
					if !slices.Contains(gates, gi) {
						gates = append(gates, gi)
					}
				}
			}
			for _, gi := range gates {
				g := &m.Gates[gi]
				ins := make([]Value, len(g.In))
				for i, in := range g.In {
					ins[i] = cur[in]
				}
				out := evalTruth3(g.Truth, ins)
				for i, in := range g.In {
					if changed[in] {
						push(t+m.arcDelayFs(int(gi), i), g.Out, out)
					}
				}
			}
		}
		ob := make([]bool, len(m.Outputs))
		for o, idx := range m.Outputs {
			ob[o] = cur[idx] == V1
		}
		res.OutputBits[v] = ob
	}
	res.Final = cur
	res.SimTimeFs = int64(len(vectors)) * periodFs
	return res
}

// TestWheelEdgeCases drives the calendar queue through its corners and
// compares every observable with referenceEventRun on the same netlist:
// arc delays spread from 1 fs up to the longest delay the wheel's bucket
// width admits (events land in the ring's last bucket and wrap), a stimulus
// period far above the settle bound (the wheel empties and jumps), the
// narrowest wheel (every arc 1 fs) and unannotated unit delays. The random
// delays also make a gate schedule its output behind a cursor that a peek
// advanced over empty buckets, the case the cursor rewind exists for.
func TestWheelEdgeCases(t *testing.T) {
	ctx := context.Background()
	const shift = 4
	maxDelay := int64(wheelBuckets-1)<<shift - 1 // the longest delay at this width
	if got := newWheel(maxDelay).shift; got != shift {
		t.Fatalf("newWheel(%d).shift = %d, want %d", maxDelay, got, shift)
	}
	if got := newWheel(maxDelay + 1).shift; got != shift+1 {
		t.Fatalf("newWheel(%d).shift = %d, want %d", maxDelay+1, got, shift+1)
	}
	randomDelays := func(m *Model, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m.DelayFs = make([][]int64, len(m.Gates))
		for gi := range m.Gates {
			m.DelayFs[gi] = make([]int64, len(m.Gates[gi].In))
			for i := range m.DelayFs[gi] {
				m.DelayFs[gi][i] = 1 + rng.Int63n(maxDelay)
			}
		}
		// Pin both ends of the range.
		m.DelayFs[0][0], m.DelayFs[len(m.Gates)-1][0] = 1, maxDelay
	}
	cases := []struct {
		name     string
		circuit  string
		delays   func(*Model)
		periodFs int64
	}{
		{"spread/int2float", "int2float", func(m *Model) { randomDelays(m, 1) }, 0},
		{"spread/bar", "bar", func(m *Model) { randomDelays(m, 2) }, 0},
		{"long-period", "int2float", func(m *Model) { randomDelays(m, 3) }, 1 << 40},
		{"one-fs", "int2float", func(m *Model) {
			m.DelayFs = make([][]int64, len(m.Gates))
			for gi := range m.Gates {
				m.DelayFs[gi] = make([]int64, len(m.Gates[gi].In))
				for i := range m.DelayFs[gi] {
					m.DelayFs[gi][i] = 1
				}
			}
		}, 0},
		{"unit", "div", func(*Model) {}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := readGoldenModel(t, c.circuit)
			c.delays(m)
			vectors := m.RandomVectors(48, 7)
			got, err := NewEvent(m, EventOptions{PeriodFs: c.periodFs}).Run(ctx, vectors)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEventRun(m, vectors, c.periodFs)
			if got.Events == 0 || got.TotalToggles() <= int64(len(vectors)) {
				t.Fatalf("fixture too quiet: %d events, %d toggles", got.Events, got.TotalToggles())
			}
			if got.Events != want.Events || got.MaxQueue != want.MaxQueue || got.SimTimeFs != want.SimTimeFs {
				t.Errorf("events/max queue/sim time = %d/%d/%d, reference %d/%d/%d",
					got.Events, got.MaxQueue, got.SimTimeFs, want.Events, want.MaxQueue, want.SimTimeFs)
			}
			if !slices.Equal(got.Toggles, want.Toggles) {
				t.Errorf("toggles differ from the reference: %d total, reference %d",
					got.TotalToggles(), want.TotalToggles())
			}
			if v, o, ok := diffBits(want.OutputBits, got.OutputBits); !ok {
				t.Errorf("vector %d output %s differs from the reference", v, m.OutputNames[o])
			}
			if !slices.Equal(got.Final, want.Final) {
				t.Error("settled net values differ from the reference")
			}
		})
	}
}
