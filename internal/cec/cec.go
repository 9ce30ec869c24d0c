// Package cec is the combinational equivalence-checking subsystem of the
// flow — the signoff tool that proves (or refutes, with a concrete input
// vector) that two circuit representations compute the same function. It
// plays the role of ABC's `cec` command for the reproduced pipeline:
//
//   - a netlist→AIG elaborator (Elaborate) recovers each PDK cell's boolean
//     function from its truth table and rebuilds a mapped netlist as an AIG,
//     so golden-RTL AIG, optimized AIG, and mapped netlist can all be
//     compared in one representation;
//   - an exhaustive simulation of every input pattern (sim.go) that decides
//     miters of at most maxSimInputs inputs with no SAT at all;
//   - for larger miters, the simulation-guided SAT-sweeping engine that
//     aig.Resub also runs (aig.Sweeper): 64-bit random simulation
//     partitions the joint miter's nodes into candidate equivalence
//     classes, then incremental SAT miters over internal/sat prove or
//     refute each candidate, with counterexamples fed back to refine the
//     classes until fixpoint;
//   - a parallel per-output miter fallback (miter.go) with a worker pool and
//     per-output conflict budgets for the outputs sweeping leaves open.
//
// Check returns a structured Verdict: EQUAL, NOT-EQUAL with a primary-input
// counterexample vector that replays as a difference on both circuits, or
// UNDECIDED naming the outputs whose proofs exhausted their budgets (or
// whose counterexample failed the replay).
package cec

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/obs"
)

// Status is the overall outcome of an equivalence check.
type Status int

// Verdict statuses.
const (
	// Equal: every output pair was proven functionally identical.
	Equal Status = iota
	// NotEqual: a concrete input vector distinguishes the circuits.
	NotEqual
	// Undecided: no difference was found, but at least one output proof
	// exhausted its conflict budget, or a counterexample failed its replay.
	Undecided
)

// String names the status the way the CLI prints it.
func (s Status) String() string {
	switch s {
	case Equal:
		return "EQUAL"
	case NotEqual:
		return "NOT-EQUAL"
	default:
		return "UNDECIDED"
	}
}

// Stats instruments one check: how the sweeping engine earned its verdict.
type Stats struct {
	MiterNodes   int // AND nodes of the joint miter
	ReducedNodes int // AND nodes after sweeping merged equivalences
	SimPatterns  int // simulation patterns applied (initial + refinement)
	Refinements  int // counterexample-driven class refinements
	StructMerges int // nodes merged purely by hashing into the reduced graph
	LocalMerges  int // nodes merged by a cut-local truth-table proof (no SAT)
	SATMerges    int // nodes merged by a SAT proof
	SATCalls     int
	SATTimeouts  int // queries that exhausted their conflict budget
	Cex          int // satisfiable queries (distinguishing patterns found)
	FallbackRuns int // outputs sent to the parallel miter fallback
}

// Verdict is the structured result of an equivalence check.
type Verdict struct {
	Status Status
	// Reason explains a NotEqual verdict that was decided structurally
	// (mismatched interface) rather than by a counterexample, or an
	// Undecided one whose counterexample failed its replay.
	Reason string

	// For NotEqual with a counterexample: the failing output's name, the
	// PI names, and the distinguishing assignment (aligned with Inputs).
	FailingOutput  string
	Inputs         []string
	Counterexample []bool
	OutA, OutB     bool // the two circuits' values on FailingOutput under the cex
	// The pairing the check used, so another engine can replay the
	// counterexample on either circuit: CexB is Counterexample in b's
	// input order, and OutputA and OutputB index FailingOutput among a's
	// and b's outputs (names may repeat, or differ between the sides when
	// the outputs were paired by position).
	CexB             []bool
	OutputA, OutputB int

	// For Undecided: the outputs whose proofs ran out of budget.
	UndecidedOutputs []string

	Stats Stats
}

// CexString renders the counterexample as name=value pairs.
func (v *Verdict) CexString() string {
	if v.Counterexample == nil {
		return ""
	}
	s := ""
	for i, name := range v.Inputs {
		if i > 0 {
			s += " "
		}
		bit := "0"
		if v.Counterexample[i] {
			bit = "1"
		}
		s += name + "=" + bit
	}
	return s
}

// Options tunes the checker. The zero value picks sensible defaults.
type Options struct {
	// OutputBudget is the conflict budget for each primary-output proof on
	// the swept graph (default 200000).
	OutputBudget int64
	// FallbackBudget is the conflict budget for the fresh-solver per-output
	// miter fallback (default 2x OutputBudget).
	FallbackBudget int64
	// Workers bounds the fallback worker pool (default GOMAXPROCS).
	Workers int
	// Seed drives the sweep's random simulation (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.OutputBudget == 0 {
		o.OutputBudget = 200000
	}
	if o.FallbackBudget == 0 {
		o.FallbackBudget = 2 * o.OutputBudget
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Check decides combinational equivalence of two AIGs. Primary inputs and
// outputs are paired by name when both sides carry matching unique name
// sets (the elaborator and the synthesis flow preserve names); otherwise
// pairing is positional. A PI/PO interface mismatch yields NotEqual with
// Reason set and no counterexample.
func Check(ctx context.Context, a, b *aig.AIG, opt Options) *Verdict {
	return check(ctx, a, b, opt, true)
}

func check(ctx context.Context, a, b *aig.AIG, opt Options, exhaustive bool) *Verdict {
	opt = opt.withDefaults()
	// Rebind ctx so the sweep/fallback spans (and their worker goroutines'
	// cost labels) nest under cec.check instead of its parent.
	ctx, span := obs.Start(ctx, "cec.check")
	span.SetAttr("a", a.Name)
	span.SetAttr("b", b.Name)
	defer span.End()

	if a.NumPIs() != b.NumPIs() {
		return &Verdict{Status: NotEqual, Reason: fmt.Sprintf(
			"input count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())}
	}
	if a.NumPOs() != b.NumPOs() {
		return &Verdict{Status: NotEqual, Reason: fmt.Sprintf(
			"output count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())}
	}

	piPerm := matchNames(piNames(a), piNames(b)) // b PI index -> a PI index
	poPerm := matchNames(poNames(a), poNames(b)) // b PO index -> a PO index

	// Joint specimen: both circuits over shared PIs (in a's order).
	m := aig.New("miter")
	pis := make([]aig.Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI(a.PIName(i))
	}
	bPIs := pis
	if piPerm != nil {
		bPIs = make([]aig.Lit, len(pis))
		for bi, ai := range piPerm {
			bPIs[bi] = pis[ai]
		}
	}
	outsA := aig.CopyInto(a, m, pis)
	outsBRaw := aig.CopyInto(b, m, bPIs)
	outsB := outsBRaw
	if poPerm != nil {
		outsB = make([]aig.Lit, len(outsBRaw))
		for bi, ai := range poPerm {
			outsB[ai] = outsBRaw[bi]
		}
	}

	var v *Verdict
	if exhaustive && m.NumPIs() <= maxSimInputs {
		v = simCheck(ctx, m, outsA, outsB, a)
	} else {
		v = runCheck(ctx, m, outsA, outsB, a, opt)
	}

	if v.Status == NotEqual && v.Counterexample != nil {
		v.replay(a, b, piPerm, poPerm)
	}
	span.SetAttr("status", v.Status.String())
	span.SetAttr("sat_calls", v.Stats.SATCalls)
	return v
}

// replay evaluates the counterexample on both original circuits (on b's
// own input and output order, filling CexB and OutputB) and fills OutA and
// OutB. A counterexample on which the circuits agree proves nothing: the
// verdict becomes Undecided with a Reason, keeping the counterexample that
// failed the replay.
func (v *Verdict) replay(a, b *aig.AIG, piPerm, poPerm []int) {
	v.OutA = a.Eval(v.Counterexample)[v.OutputA]
	v.CexB = v.Counterexample
	v.OutputB = v.OutputA
	if piPerm != nil {
		v.CexB = make([]bool, len(v.Counterexample))
		for bi, ai := range piPerm {
			v.CexB[bi] = v.Counterexample[ai]
		}
	}
	for bi, ai := range poPerm {
		if ai == v.OutputA {
			v.OutputB = bi
		}
	}
	v.OutB = b.Eval(v.CexB)[v.OutputB]
	if v.OutA == v.OutB {
		v.Status = Undecided
		v.Reason = fmt.Sprintf("counterexample for output %s does not distinguish the circuits on replay (both %v)", v.FailingOutput, v.OutA)
		v.UndecidedOutputs = []string{v.FailingOutput}
	}
}

func piNames(g *aig.AIG) []string {
	out := make([]string, g.NumPIs())
	for i := range out {
		out[i] = g.PIName(i)
	}
	return out
}

func poNames(g *aig.AIG) []string {
	out := make([]string, g.NumPOs())
	for i := range out {
		out[i] = g.POName(i)
	}
	return out
}

// matchNames returns perm with perm[bIdx] = aIdx when the two name lists
// are permutations of each other with unique entries, or nil to signal
// positional pairing. An identity permutation also returns nil.
func matchNames(aNames, bNames []string) []int {
	idx := make(map[string]int, len(aNames))
	for i, n := range aNames {
		if _, dup := idx[n]; dup {
			return nil
		}
		idx[n] = i
	}
	perm := make([]int, len(bNames))
	identity := true
	seen := make(map[string]bool, len(bNames))
	for bi, n := range bNames {
		ai, ok := idx[n]
		if !ok || seen[n] {
			return nil
		}
		seen[n] = true
		perm[bi] = ai
		if ai != bi {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return perm
}
