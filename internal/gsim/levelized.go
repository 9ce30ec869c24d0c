package gsim

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Engine is a gate-level simulation engine over a compiled model. Both
// engines are deterministic: the same model, options, and vectors produce
// bit-identical results.
type Engine interface {
	// Name identifies the engine ("levelized" or "event").
	Name() string
	// Run executes the vectors in order and returns the measured result.
	Run(ctx context.Context, vectors []Vector) (*Result, error)
}

// levelized is the zero-delay compiled engine: gates evaluate once per
// vector in topological order, 64 vectors at a time in word-parallel
// planes (Graph.SimWords). It is the functional/regression mode — fast,
// two-valued, and bit-compatible with internal/power's activity model when
// fed the same stimulus stream.
type levelized struct {
	m *Model
}

// NewLevelized returns the zero-delay levelized engine.
func NewLevelized(m *Model) Engine { return &levelized{m: m} }

func (e *levelized) Name() string { return "levelized" }

func (e *levelized) Run(ctx context.Context, vectors []Vector) (*Result, error) {
	m := e.m
	_, span := obs.Start(ctx, "gsim.levelized")
	span.SetAttr("design", m.Name)
	span.SetAttr("vectors", len(vectors))
	defer span.End()
	obs.C("gsim.runs").Inc()

	res := &Result{
		Engine:     "levelized",
		Vectors:    len(vectors),
		Toggles:    make([]int64, len(m.Nets)),
		OutputBits: carve(make([]bool, len(vectors)*len(m.Outputs)), len(vectors), len(m.Outputs)),
		Final:      make([]Value, len(m.Nets)),
		nets:       m.Nets,
	}
	for i := range res.Final {
		res.Final[i] = VX
	}
	res.Final[netlist.NetConst0] = V0
	res.Final[netlist.NetConst1] = V1

	in := make([]uint64, len(m.Inputs))
	// Chunks alternate between two planes, so prev stays intact.
	planes := [2][]uint64{make([]uint64, len(m.Nets)), make([]uint64, len(m.Nets))}
	var prev []uint64
	var evals int64
	task := obs.Progress("gsim.vectors", int64(len(vectors)))
	defer task.Finish()
	// Checked up front, not per input: a model without inputs must still
	// reject a vector that carries bits.
	for v, vec := range vectors {
		if len(vec) != len(m.Inputs) {
			return nil, fmt.Errorf("gsim: vector %d has %d bits, want %d", v, len(vec), len(m.Inputs))
		}
	}
	for base := 0; base < len(vectors); base += 64 {
		chunk := len(vectors) - base
		if chunk > 64 {
			chunk = 64
		}
		for i := range in {
			var w uint64
			for b := 0; b < chunk; b++ {
				if vectors[base+b][i] {
					w |= 1 << uint(b)
				}
			}
			in[i] = w
		}
		vals, err := m.SimWordsInto(planes[base/64&1], in)
		if err != nil {
			return nil, err
		}
		evals += int64(len(m.Gates))
		netlist.AddToggles(res.Toggles, prev, vals, chunk)
		for b := 0; b < chunk; b++ {
			ob := res.OutputBits[base+b]
			for o, idx := range m.Outputs {
				ob[o] = vals[idx]&(1<<uint(b)) != 0
			}
		}
		if base+chunk == len(vectors) {
			last := uint(chunk - 1)
			for net, w := range vals {
				if w&(1<<last) != 0 {
					res.Final[net] = V1
				} else {
					res.Final[net] = V0
				}
			}
		}
		prev = vals
		task.Add(int64(chunk))
	}
	res.Events = evals
	obs.C("gsim.vectors").Add(int64(len(vectors)))
	obs.C("gsim.gate_evals").Add(evals)
	obs.C("gsim.toggles").Add(res.TotalToggles())
	span.SetAttr("toggles", res.TotalToggles())
	return res, nil
}
