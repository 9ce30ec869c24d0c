package mapper

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/aig"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// CostMode selects the priority list used to rank candidate matches.
type CostMode int

// The three mapping scenarios evaluated in the paper (Section V-B).
const (
	// Baseline is the state-of-the-art power-aware mapping: network size
	// (area) remains the primary objective, delay second, with power as the
	// final tie-breaker — mirroring how ABC "refuses to give up on network
	// size as its main optimization target".
	Baseline CostMode = iota
	// PowerAreaDelay is the proposed cryogenic-aware priority list
	// power -> area -> delay.
	PowerAreaDelay
	// PowerDelayArea is the proposed cryogenic-aware priority list
	// power -> delay -> area.
	PowerDelayArea
)

// String names the mode as in the paper.
func (m CostMode) String() string {
	switch m {
	case PowerAreaDelay:
		return "p->a->d"
	case PowerDelayArea:
		return "p->d->a"
	default:
		return "baseline"
	}
}

// Options configures a mapping run.
type Options struct {
	Mode CostMode
	K    int // cut size (default 5)
	// Passes is the number of forward mapping passes; passes after the
	// first re-estimate area/power flow from the previous cover's actual
	// fanout counts (standard area-recovery refinement). Default 2.
	Passes int
}

// epsilon tolerance when comparing priority-cost components: within eps the
// components are considered tied and the next priority decides.
const costEps = 0.06

// maxCuts is the number of priority cuts kept per node.
const maxCuts = 8

// clockPeriod converts leakage power to per-cycle energy in the power
// cost.
const clockPeriod = 1e-9

// Cost is what a CostMode ranks: a candidate's power, area and delay.
type Cost struct {
	Power, Area, Delay float64
}

type implChoice struct {
	match *Match
	cut   aig.Cut
	Cost
	valid bool
}

// CutTable is the library-independent half of mapping one AIG: its
// priority cuts, each carrying its function. It is filled by the first
// mapping that uses it, inside that mapping's span, and then serves every
// later mapping of the same AIG: each refinement pass, cost mode and match
// library. Its lifetime is its holder's (nothing caches it globally), and
// Release hands its memory back early. A CutTable is safe for concurrent
// use.
type CutTable struct {
	g  *aig.AIG
	mu sync.Mutex
	// k is the cut size the table was filled with.
	k    int
	cuts [][]aig.Cut
}

// NewCutTable returns an empty cut table for g; nothing is computed until
// the first mapping uses it.
func NewCutTable(g *aig.AIG) *CutTable { return &CutTable{g: g} }

// Release empties the table so its memory can be reclaimed; a later
// mapping fills it again. Mappings already running keep their view.
func (t *CutTable) Release() {
	t.mu.Lock()
	t.cuts = nil
	t.mu.Unlock()
}

// get returns the cuts for cut size k, enumerating them when the table is
// empty or was filled for another size.
func (t *CutTable) get(k int) [][]aig.Cut {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cuts == nil || t.k != k {
		t.k, t.cuts = k, t.g.EnumerateCuts(k, maxCuts)
	}
	return t.cuts
}

// mappable reports whether the mapper covers node v with cut: one to six
// leaves, and not v's trivial cut.
func mappable(cut aig.Cut, v int) bool {
	l := len(cut.Leaves)
	return l >= 1 && l <= 6 && !(l == 1 && cut.Leaves[0] == v)
}

// resolveMatches looks up the library matches of every mappable cut once,
// under one hold of the library's lock, so the refinement passes read them
// without taking it: matches[v][i] belongs to cuts[v][i] (nil for a cut the
// mapper skips). One backing slice holds every node's row.
func resolveMatches(g *aig.AIG, ml *MatchLibrary, cuts [][]aig.Cut) [][][]*Match {
	n := 0
	for _, cs := range cuts {
		n += len(cs)
	}
	flat := make([][]*Match, n)
	matches := make([][][]*Match, len(cuts))
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		cs := cuts[v]
		matches[v], flat = flat[:len(cs):len(cs)], flat[len(cs):]
		for i, cut := range cs {
			if mappable(cut, v) {
				matches[v][i] = ml.matchesFor(cut.TT, len(cut.Leaves))
			}
		}
	}
	return matches
}

// Map covers the AIG with library cells under the selected cost-priority
// mode and returns the mapped netlist. Primary outputs are aliased onto
// their driver nets (inverters are materialized where a complemented signal
// is required).
func Map(ctx context.Context, g *aig.AIG, ml *MatchLibrary, opt Options) (*netlist.Netlist, error) {
	return MapTable(ctx, NewCutTable(g), ml, opt)
}

// MapTable is Map over a cut table that later mappings of the same AIG may
// share: the netlist is the one Map returns for the table's AIG.
func MapTable(ctx context.Context, t *CutTable, ml *MatchLibrary, opt Options) (*netlist.Netlist, error) {
	g := t.g
	_, span := obs.Start(ctx, "mapper.map")
	span.SetAttr("design", g.Name)
	span.SetAttr("mode", opt.Mode.String())
	defer span.End()
	obs.C("mapper.runs").Inc()
	if opt.K == 0 {
		opt.K = 5
	}
	if opt.K > 6 {
		return nil, fmt.Errorf("mapper: cut size %d exceeds 6", opt.K)
	}
	if opt.Passes == 0 {
		opt.Passes = 2
	}
	cuts := t.get(opt.K)
	matches := resolveMatches(g, ml, cuts)
	refs := g.FanoutCounts()
	act := g.Activities()

	inv := ml.Inv
	vdd := ml.Lib.Vdd // supply of the switching-energy estimate
	invEnergyAt := func(a float64) float64 {
		return a*inv.Energy + inv.Leakage*clockPeriod + a*0.5*vdd*vdd*inv.InCaps[0]
	}

	var best []implChoice
	for pass := 0; pass < opt.Passes; pass++ {
		if pass > 0 {
			// Refinement: re-estimate flows with the previous cover's
			// actual reference counts, so shared logic is priced correctly.
			refs = coverRefs(g, best)
		}
		best = mapPass(g, ml, opt, cuts, matches, refs, act, invEnergyAt)
		obs.C("mapper.passes").Inc()
	}
	nl, err := extract(g, ml, best, opt)
	if err == nil {
		obs.C("mapper.gates_emitted").Add(int64(nl.NumGates()))
		if span != nil {
			span.SetAttr("gates", nl.NumGates())
			span.SetAttr("area", nl.Area())
		}
	}
	return nl, err
}

// coverRefs counts, per variable, how many chosen cuts (plus primary
// outputs) reference it in the current cover.
func coverRefs(g *aig.AIG, best []implChoice) []int {
	refs := make([]int, g.NumVars())
	visited := make([]bool, g.NumVars())
	var visit func(v int)
	visit = func(v int) {
		if v == 0 || g.IsPI(v) || visited[v] {
			return
		}
		visited[v] = true
		for _, leaf := range best[v].cut.Leaves {
			refs[leaf]++
			visit(leaf)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		if po.Var() != 0 {
			refs[po.Var()]++
			visit(po.Var())
		}
	}
	return refs
}

// mapPass runs one forward best-match pass under the given reference
// counts.
func mapPass(g *aig.AIG, ml *MatchLibrary, opt Options, cuts [][]aig.Cut, matches [][][]*Match, refs []int, act []float64, invEnergyAt func(float64) float64) []implChoice {
	inv := ml.Inv
	vdd := ml.Lib.Vdd
	best := make([]implChoice, g.NumVars())
	for v := 1; v <= g.NumPIs(); v++ {
		best[v] = implChoice{valid: true}
	}
	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		var bc implChoice
		for i, cut := range cuts[v] {
			for _, m := range matches[v][i] {
				cand := implChoice{match: m, cut: cut, valid: true}
				cand.Area = m.Area
				cand.Delay = m.Delay
				// Power: internal energy weighted by this node's switching
				// activity, leakage integrated over a clock period, and the
				// switching energy of charging the cell's input pins.
				cand.Power = act[v]*m.Energy + m.Leakage*clockPeriod
				for i, leaf := range m.PinToLeaf {
					cand.Power += act[cut.Leaves[leaf]] * 0.5 * vdd * vdd * m.InCaps[i]
				}
				if m.OutNeg {
					cand.Area += inv.Area
					cand.Delay += inv.Delay
					cand.Power += invEnergyAt(act[v])
				}
				var worstLeaf float64
				for _, leaf := range cut.Leaves {
					lb := best[leaf]
					if !lb.valid {
						cand.valid = false
						break
					}
					r := refs[leaf]
					if r < 1 {
						r = 1
					}
					cand.Area += lb.Area / float64(r)
					cand.Power += lb.Power / float64(r)
					if lb.Delay > worstLeaf {
						worstLeaf = lb.Delay
					}
				}
				if !cand.valid {
					continue
				}
				cand.Delay += worstLeaf
				if !bc.valid || opt.Mode.Better(cand.Cost, bc.Cost) {
					bc = cand
				}
			}
		}
		best[v] = bc
	}
	return best
}

// Better reports whether cost a beats cost b under the mode's priority
// list: the first key on which they differ by more than costEps of the
// larger magnitude decides, and a full tie keeps b.
func (m CostMode) Better(a, b Cost) bool {
	var ka, kb [3]float64
	switch m {
	case PowerAreaDelay:
		ka = [3]float64{a.Power, a.Area, a.Delay}
		kb = [3]float64{b.Power, b.Area, b.Delay}
	case PowerDelayArea:
		ka = [3]float64{a.Power, a.Delay, a.Area}
		kb = [3]float64{b.Power, b.Delay, b.Area}
	default:
		ka = [3]float64{a.Area, a.Delay, a.Power}
		kb = [3]float64{b.Area, b.Delay, b.Power}
	}
	for i := 0; i < 3; i++ {
		lo, hi := ka[i], kb[i]
		scale := math.Max(math.Abs(lo), math.Abs(hi))
		if scale > 0 && math.Abs(lo-hi) > costEps*scale {
			return lo < hi
		}
	}
	return false
}

// extract performs the backward covering pass and materializes the netlist.
func extract(g *aig.AIG, ml *MatchLibrary, best []implChoice, opt Options) (*netlist.Netlist, error) {
	type need struct{ pos, neg bool }
	needs := make([]need, g.NumVars())
	visited := make([]bool, g.NumVars())

	var visitErr error
	var visit func(v int)
	visit = func(v int) {
		if v == 0 || g.IsPI(v) || visited[v] {
			return
		}
		if !best[v].valid {
			visitErr = fmt.Errorf("mapper: no match for node %d (function not in library)", v)
			return
		}
		visited[v] = true
		for _, leaf := range best[v].cut.Leaves {
			if leaf != v {
				visit(leaf)
				needs[leaf].pos = true
			}
		}
	}
	needConst0, needConst1 := false, false
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		if po.Var() == 0 {
			if po.IsCompl() {
				needConst1 = true
			} else {
				needConst0 = true
			}
			continue
		}
		visit(po.Var())
		if po.IsCompl() {
			needs[po.Var()].neg = true
		} else if !g.IsPI(po.Var()) {
			needs[po.Var()].pos = true
		}
	}
	if visitErr != nil {
		return nil, visitErr
	}

	nl := netlist.New(g.Name, ml.Cells)
	for i := 0; i < g.NumPIs(); i++ {
		nl.Inputs = append(nl.Inputs, g.PIName(i))
	}
	names := make([]string, g.NumVars())
	netOf := func(v int) string {
		if g.IsPI(v) {
			return g.PIName(v - 1)
		}
		if names[v] == "" {
			names[v] = "n" + strconv.Itoa(v)
		}
		return names[v]
	}
	invNet := func(v int) string { return netOf(v) + "_inv" }

	// Constant nets: realized by tying all inputs of a cell whose function
	// is constant on the all-equal rows (e.g. XOR2(a,a) = 0) to a PI.
	if needConst0 || needConst1 {
		if g.NumPIs() == 0 {
			return nil, fmt.Errorf("mapper: constant output in a circuit without inputs")
		}
		anyPI := g.PIName(0)
		mkConst := func(want bool, net string) error {
			cell := constCell(ml, want)
			if cell == nil {
				return fmt.Errorf("mapper: library cannot realize constant %v", want)
			}
			pins := make([]string, len(cell.Cell.Inputs))
			for i := range pins {
				pins[i] = anyPI
			}
			return nl.AddGate(cell.Lib.Name, pins, net)
		}
		if needConst0 {
			if err := mkConst(false, "const0"); err != nil {
				return nil, err
			}
		}
		if needConst1 {
			if err := mkConst(true, "const1"); err != nil {
				return nil, err
			}
		}
	}

	for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
		if !visited[v] {
			continue
		}
		bc := best[v]
		m := bc.match
		pins := make([]string, len(m.PinToLeaf))
		for pinIdx, leafIdx := range m.PinToLeaf {
			pins[pinIdx] = netOf(bc.cut.Leaves[leafIdx])
		}
		out := netOf(v)
		if m.OutNeg {
			// The cell realizes the complement: its raw output is the
			// inverted net; an inverter restores the positive phase when
			// needed.
			raw := invNet(v)
			if err := nl.AddGate(m.Lib.Name, pins, raw); err != nil {
				return nil, err
			}
			needs[v].neg = false // complement available for free
			if needs[v].pos {
				if err := nl.AddGate(ml.Inv.Lib.Name, []string{raw}, out); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := nl.AddGate(m.Lib.Name, pins, out); err != nil {
			return nil, err
		}
	}
	// Inverters for complemented uses (POs, OutNeg already handled).
	for v := 1; v < g.NumVars(); v++ {
		if !needs[v].neg {
			continue
		}
		if !g.IsPI(v) && !visited[v] {
			return nil, fmt.Errorf("mapper: internal error: inverted use of unmapped node %d", v)
		}
		if err := nl.AddGate(ml.Inv.Lib.Name, []string{netOf(v)}, invNet(v)); err != nil {
			return nil, err
		}
	}
	// Primary outputs alias their driver nets.
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		name := g.POName(i)
		var net string
		switch {
		case po.Var() == 0 && po.IsCompl():
			net = "const1"
		case po.Var() == 0:
			net = "const0"
		case po.IsCompl():
			net = invNet(po.Var())
		default:
			net = netOf(po.Var())
		}
		nl.Outputs = append(nl.Outputs, name)
		nl.Aliases[name] = net
	}
	return nl, nil
}

// constCell finds a combinational match cell whose output is the requested
// constant when all inputs are tied together (rows 00..0 and 11..1 equal).
// Candidates are ranked by area then name: map iteration order must never
// leak into the chosen cover (the QoR flight recorder diffs runs exactly).
func constCell(ml *MatchLibrary, want bool) *Match {
	var best *Match
	for _, byTT := range ml.byCanon {
		for _, ms := range byTT {
			for _, m := range ms {
				tt, ok := m.Cell.Truth(m.Cell.Outputs[0])
				if !ok {
					continue
				}
				n := len(m.Cell.Inputs)
				lo := tt&1 != 0
				hi := tt&(1<<uint(1<<uint(n)-1)) != 0
				if lo != hi || lo != want {
					continue
				}
				if best == nil || m.Area < best.Area ||
					(m.Area == best.Area && m.Lib.Name < best.Lib.Name) {
					best = m
				}
			}
		}
	}
	return best
}
