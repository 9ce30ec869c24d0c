// Package gsim is the gate-level logic simulator of the flow: it executes a
// technology-mapped netlist on concrete stimulus vectors, producing per-net
// toggle counts (the measured switching activity that internal/power can
// consume in place of its statistical model), VCD traces, and per-vector
// primary-output values for functional signoff against AIG simulation.
//
// A netlist is first compiled (Compile) into the shared netlist.Graph: nets
// become dense indices, every gate carries its PDK truth table (the same
// table the mapper's cut matching and the CEC elaborator use), and fanout
// lists plus topological levels are frozen. Two engines then run behind one
// interface:
//
//   - the levelized engine (levelized.go) evaluates gates in topological
//     order with Graph.SimWords' 64-bit vector parallelism and zero delay —
//     the fast functional/regression mode, bit-compatible with the
//     random-vector activity model internal/power runs;
//   - the event-driven engine (event.go) propagates individual value
//     changes through a time-ordered event queue with per-arc transport
//     delays annotated from the characterized liberty tables (delay.go), so
//     hazard glitches — the dynamic-power events a zero-delay model assumes
//     away — are simulated, counted, and dumpable to VCD.
//
// Logic is three-valued (0/1/X). The event engine starts every net at X and
// lets the first stimulus wave resolve the circuit, matching conventional
// gate-level simulator semantics; the levelized engine is two-valued (its
// inputs are always fully specified vectors). See docs/GSIM.md.
package gsim

import (
	"math/rand"

	"repro/internal/netlist"
)

// Value is a three-valued logic level.
type Value uint8

// Logic values. X is the unknown/uninitialized state.
const (
	V0 Value = iota
	V1
	VX
)

// String renders the value the way VCD does.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "x"
	}
}

// DefaultDelayFs is the per-arc unit delay (1 ps) used by the event engine
// when the model has not been annotated against a liberty library.
const DefaultDelayFs = 1000

// Model is a netlist compiled for simulation: the shared netlist.Graph plus
// the event engine's per-arc delays.
type Model struct {
	*netlist.Graph
	// DelayFs[gi][i] is gate gi's input-i-to-output transport delay in
	// femtoseconds; nil until Annotate, in which case the event engine
	// falls back to DefaultDelayFs per arc.
	DelayFs [][]int64
}

// Compile flattens a mapped netlist into an evaluation graph
// (netlist.Compile): every cell must be combinational with a truth table
// (≤ 6 inputs) — the same restriction the CEC elaborator imposes.
func Compile(nl *netlist.Netlist) (*Model, error) {
	g, err := netlist.Compile(nl)
	if err != nil {
		return nil, err
	}
	return &Model{Graph: g}, nil
}

// Annotated reports whether per-arc liberty delays have been attached.
func (m *Model) Annotated() bool { return m.DelayFs != nil }

// evalTruth3 evaluates a truth table under three-valued inputs: if every
// input is known it is a direct row lookup; otherwise the X inputs are
// cofactored and the output is X unless both cofactor sets agree.
func evalTruth3(tt uint64, in []Value) Value {
	row := 0
	unknown := 0
	unknownBits := make([]int, 0, 6)
	for i, v := range in {
		switch v {
		case V1:
			row |= 1 << uint(i)
		case VX:
			unknown++
			unknownBits = append(unknownBits, i)
		}
	}
	if unknown == 0 {
		if tt&(1<<uint(row)) != 0 {
			return V1
		}
		return V0
	}
	// Enumerate the 2^unknown completions; stop early once both output
	// values are seen.
	seen0, seen1 := false, false
	for k := 0; k < 1<<uint(unknown); k++ {
		r := row
		for b, bit := range unknownBits {
			if k&(1<<uint(b)) != 0 {
				r |= 1 << uint(bit)
			}
		}
		if tt&(1<<uint(r)) != 0 {
			seen1 = true
		} else {
			seen0 = true
		}
		if seen0 && seen1 {
			return VX
		}
	}
	if seen1 {
		return V1
	}
	return V0
}

// Vector is one primary-input assignment in Model.InputNames order.
type Vector []bool

// RandomVectors draws n uniform random vectors for the model's inputs,
// deterministic for a seed. The bit stream is laid out exactly like the
// word-parallel stimulus of internal/power's activity model (per 64-vector
// round, one fresh word per input in port order), so a zero-delay gsim run
// over these vectors measures the same activity the model simulates.
func (m *Model) RandomVectors(n int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	out := carve(make(Vector, n*len(m.Inputs)), n, len(m.Inputs))
	for base := 0; base < n; base += 64 {
		for i := range m.Inputs {
			w := rng.Uint64()
			for b := 0; b < 64 && base+b < n; b++ {
				out[base+b][i] = w&(1<<uint(b)) != 0
			}
		}
	}
	return out
}

// Result is the outcome of a simulation run.
type Result struct {
	Engine  string // "levelized" or "event"
	Vectors int

	// Toggles counts 0↔1 transitions per net index over the whole run
	// (transitions out of X are not toggles). The event engine counts every
	// committed change — glitches included; the levelized engine counts one
	// per changed settled value.
	Toggles []int64

	// OutputBits[v][o] is primary output o's settled value under vector v.
	OutputBits [][]bool

	// Final holds the settled value of every net after the last vector.
	Final []Value

	// Events is the number of committed net-change events processed (event
	// engine; the levelized engine counts gate evaluations).
	Events int64
	// MaxQueue is the event-queue high-water mark (event engine only).
	MaxQueue int
	// SimTimeFs is the total simulated time in femtoseconds (event engine
	// only).
	SimTimeFs int64

	nets []string // net index -> name, for ToggleRates
}

// ToggleRates returns per-net-name toggle densities (transitions per
// vector), the unit internal/power consumes.
func (r *Result) ToggleRates() map[string]float64 {
	rates := make(map[string]float64, len(r.Toggles))
	if r.Vectors == 0 {
		return rates
	}
	for i, t := range r.Toggles {
		rates[r.nets[i]] = float64(t) / float64(r.Vectors)
	}
	return rates
}

// TotalToggles sums toggle counts over all nets.
func (r *Result) TotalToggles() int64 {
	var n int64
	for _, t := range r.Toggles {
		n += t
	}
	return n
}

// carve splits flat into n rows of width w each. Rows are capped, so an
// append to one row copies instead of overwriting the next.
func carve[S ~[]E, E any](flat S, n, w int) []S {
	rows := make([]S, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}
