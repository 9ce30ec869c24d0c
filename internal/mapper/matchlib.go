// Package mapper implements cut-based standard-cell technology mapping with
// configurable cost-priority lists. This is where the paper's core
// contribution lives: the conventional mapper refuses to give up network
// size as its primary objective, while the cryogenic-aware variants promote
// power to the top of the priority list — power->area->delay and
// power->delay->area (Section IV-B).
package mapper

import (
	"fmt"
	"sync"

	"repro/internal/aig"
	"repro/internal/liberty"
	"repro/internal/pdk"
)

// Match binds a library cell to a cut function: cell input pin i connects to
// cut leaf PinToLeaf[i]; when OutNeg is set the cell realizes the complement
// of the cut function.
type Match struct {
	Cell      *pdk.Cell
	Lib       *liberty.Cell
	PinToLeaf []int
	OutNeg    bool

	// Pre-extracted nominal costs for ranking (SI units).
	Area    float64
	Delay   float64 // worst mid-grid arc delay
	Energy  float64 // average per-event internal energy at mid grid
	Leakage float64
	InCaps  []float64 // input pin capacitance per cell input

	// Canonicalization of the cell's own function, used to compose pin
	// bindings for a concrete cut.
	cellPerm []int
	cellNeg  bool
}

// MatchLibrary indexes the single-output combinational cells of a liberty
// library by the P-canonical form of their functions.
type MatchLibrary struct {
	Lib   *liberty.Library
	Cells []*pdk.Cell // the PDK catalog the liberty cells were built from
	// byCanon[n] maps canonical tables of n-input functions to matches.
	byCanon [7]map[uint64][]*Match
	// Inv is the cheapest inverter, used for phase repair.
	Inv *Match

	// memo[n] caches MatchesFor per truth table over n leaves; mu guards
	// it so one library can serve concurrent mappers.
	mu   sync.Mutex
	memo [7]map[uint64][]*Match
}

// BuildMatchLibrary prepares the match index from a characterized liberty
// library and its PDK cell definitions (joined by cell name). Only
// single-output combinational cells with at most maxK inputs participate.
func BuildMatchLibrary(lib *liberty.Library, cells []*pdk.Cell, maxK int) (*MatchLibrary, error) {
	ml := &MatchLibrary{Lib: lib, Cells: cells}
	for _, lc := range lib.Cells {
		if lc.Sequential {
			continue
		}
		cell := pdk.FindCell(cells, lc.Name)
		if cell == nil || len(cell.Outputs) != 1 || cell.Seq {
			continue
		}
		n := len(cell.Inputs)
		if n == 0 || n > maxK || n > 6 {
			continue
		}
		tt, ok := cell.Truth(cell.Outputs[0])
		if !ok {
			continue
		}
		// Skip cells with redundant inputs: their support must be full for
		// a clean pin binding.
		if aig.TruthSupport(tt, n) != uint32(1<<uint(n))-1 {
			continue
		}
		m, err := newMatch(cell, lc, tt, n)
		if err != nil {
			return nil, err
		}
		canon, perm, outNeg := aig.CanonPP(tt, n)
		m.cellPerm = perm
		m.cellNeg = outNeg
		if ml.byCanon[n] == nil {
			ml.byCanon[n] = make(map[uint64][]*Match)
			ml.memo[n] = make(map[uint64][]*Match)
		}
		ml.byCanon[n][canon] = append(ml.byCanon[n][canon], m)
		if cell.Base == "INV" && (ml.Inv == nil || m.Area < ml.Inv.Area) {
			inv := *m
			inv.PinToLeaf = []int{0}
			ml.Inv = &inv
		}
	}
	if ml.Inv == nil { // the inverter is matchable, so none of it is empty
		return nil, fmt.Errorf("mapper: library has no inverter")
	}
	return ml, nil
}

func newMatch(cell *pdk.Cell, lc *liberty.Cell, tt uint64, n int) (*Match, error) {
	m := &Match{Cell: cell, Lib: lc, Area: lc.Area, Leakage: lc.LeakagePower}
	out := lc.Outputs()
	if len(out) != 1 {
		return nil, fmt.Errorf("mapper: cell %s must have one output", lc.Name)
	}
	var worstDelay, sumEnergy float64
	arcs := 0
	for _, in := range cell.Inputs {
		tm := lc.Timing(out[0].Name, in)
		pw := lc.Power(out[0].Name, in)
		if tm == nil || pw == nil {
			return nil, fmt.Errorf("mapper: cell %s missing arc %s", lc.Name, in)
		}
		slew, load := midPoint(tm.CellRise)
		d := tm.Delay(slew, load)
		if d > worstDelay {
			worstDelay = d
		}
		sumEnergy += 0.5 * (pw.RisePower.Lookup(slew, load) + pw.FallPower.Lookup(slew, load))
		arcs++
		pin := lc.FindPin(in)
		if pin == nil {
			return nil, fmt.Errorf("mapper: cell %s missing pin %s", lc.Name, in)
		}
		m.InCaps = append(m.InCaps, pin.Cap)
	}
	m.Delay = worstDelay
	if arcs > 0 {
		m.Energy = sumEnergy / float64(arcs)
	}
	return m, nil
}

func midPoint(t *liberty.Table) (slew, load float64) {
	return t.Index1[len(t.Index1)/2], t.Index2[len(t.Index2)/2]
}

// MatchesFor returns the library matches for a cut function over n leaves,
// with pin bindings composed for this specific truth table. The result is
// cached on the library per (function, n): the slice and its matches are
// shared between callers and must be treated as read-only.
func (ml *MatchLibrary) MatchesFor(tt uint64, n int) []*Match {
	ml.mu.Lock()
	out := ml.matchesFor(tt, n)
	ml.mu.Unlock()
	return out
}

// matchesFor is MatchesFor with ml.mu held.
func (ml *MatchLibrary) matchesFor(tt uint64, n int) []*Match {
	if n < 1 || n > 6 || ml.byCanon[n] == nil {
		return nil
	}
	tt &= aig.Truth6Mask(n)
	out, ok := ml.memo[n][tt]
	if !ok {
		out = composeMatches(ml.byCanon[n], tt, n)
		ml.memo[n][tt] = out
	}
	return out
}

// composeMatches canonicalizes the cut function and binds every library
// match of its canonical form to the cut's leaves.
func composeMatches(byN map[uint64][]*Match, tt uint64, n int) []*Match {
	canon, cutPerm, cutNeg := aig.CanonPP(tt, n)
	raw := byN[canon]
	if len(raw) == 0 {
		return nil
	}
	out := make([]*Match, 0, len(raw))
	for _, m := range raw {
		// canon(y) = cut^cutNeg with leaf cutPerm[i] at position i
		//          = cell^cellNeg with pin cellPerm[i] at position i.
		// So cell pin cellPerm[i] binds to cut leaf cutPerm[i].
		bound := *m
		bound.PinToLeaf = make([]int, n)
		for i := 0; i < n; i++ {
			bound.PinToLeaf[m.cellPerm[i]] = cutPerm[i]
		}
		bound.OutNeg = m.cellNeg != cutNeg
		out = append(out, &bound)
	}
	return out
}
