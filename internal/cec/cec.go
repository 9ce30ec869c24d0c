// Package cec is the combinational equivalence-checking subsystem of the
// flow — the signoff tool that proves (or refutes, with a concrete input
// vector) that two circuit representations compute the same function. It
// plays the role of ABC's `cec` command for the reproduced pipeline:
//
//   - a netlist→AIG elaborator (Elaborate) recovers each PDK cell's boolean
//     function from its truth table and rebuilds a mapped netlist as an AIG,
//     so golden-RTL AIG, optimized AIG, and mapped netlist can all be
//     compared in one representation;
//   - a simulation-guided SAT-sweeping engine (sweep.go): 64-bit random
//     simulation partitions the joint miter's nodes into candidate
//     equivalence classes, then incremental SAT miters over internal/sat
//     prove or refute each candidate, with counterexamples fed back to
//     refine the classes until fixpoint;
//   - a parallel per-output miter fallback (miter.go) with a worker pool and
//     per-output conflict budgets for the outputs sweeping leaves open.
//
// Check returns a structured Verdict: EQUAL, NOT-EQUAL with a primary-input
// counterexample vector, or UNDECIDED naming the outputs whose proofs
// exhausted their budgets.
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
	// exhausted its conflict budget.
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
	// (mismatched interface) rather than by a counterexample.
	Reason string

	// For NotEqual with a counterexample: the failing output's name, the
	// PI names, and the distinguishing assignment (aligned with Inputs).
	FailingOutput  string
	Inputs         []string
	Counterexample []bool
	OutA, OutB     bool // the two circuits' values on FailingOutput under the cex

	// For Undecided: the outputs whose proofs ran out of budget.
	UndecidedOutputs []string

	Stats Stats

	// failingPO is the golden output index of FailingOutput: output names
	// may repeat, so the name alone does not locate it.
	failingPO int
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
	// SimWords is the number of 64-pattern random simulation words used to
	// seed the candidate equivalence classes (default 8 → 512 patterns).
	SimWords int
	// OutputBudget is the conflict budget for each primary-output proof on
	// the swept graph (default 200000).
	OutputBudget int64
	// FallbackBudget is the conflict budget for the fresh-solver per-output
	// miter fallback (default 2x OutputBudget).
	FallbackBudget int64
	// Workers bounds the fallback worker pool (default GOMAXPROCS).
	Workers int
	// Seed drives the random simulation (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SimWords <= 0 {
		o.SimWords = 8
	}
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
	outsA := appendInto(a, m, pis)
	outsBRaw := appendInto(b, m, bPIs)
	outsB := outsBRaw
	if poPerm != nil {
		outsB = make([]aig.Lit, len(outsBRaw))
		for bi, ai := range poPerm {
			outsB[ai] = outsBRaw[bi]
		}
	}

	v := runCheck(ctx, m, outsA, outsB, a, opt)

	// Re-express the counterexample on b's own input order for validation
	// and fill the two circuits' output values.
	if v.Status == NotEqual && v.Counterexample != nil {
		poIdx := v.failingPO
		v.OutA = a.Eval(v.Counterexample)[poIdx]
		bIn := v.Counterexample
		bPOIdx := poIdx
		if piPerm != nil {
			bIn = make([]bool, len(v.Counterexample))
			for bi, ai := range piPerm {
				bIn[bi] = v.Counterexample[ai]
			}
		}
		if poPerm != nil {
			for bi, ai := range poPerm {
				if ai == poIdx {
					bPOIdx = bi
				}
			}
		}
		v.OutB = b.Eval(bIn)[bPOIdx]
	}
	span.SetAttr("status", v.Status.String())
	span.SetAttr("sat_calls", v.Stats.SATCalls)
	return v
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

// appendInto replicates src's logic into dst over the provided PI literals
// and returns dst literals for src's POs.
func appendInto(src, dst *aig.AIG, pis []aig.Lit) []aig.Lit {
	m := make([]aig.Lit, src.NumVars())
	m[0] = aig.False
	for i := 0; i < src.NumPIs(); i++ {
		m[i+1] = pis[i]
	}
	for v := src.NumPIs() + 1; v < src.NumVars(); v++ {
		f0, f1 := src.Fanins(v)
		a := m[f0.Var()].NotIf(f0.IsCompl())
		b := m[f1.Var()].NotIf(f1.IsCompl())
		m[v] = dst.And(a, b)
	}
	out := make([]aig.Lit, src.NumPOs())
	for i := 0; i < src.NumPOs(); i++ {
		po := src.PO(i)
		out[i] = m[po.Var()].NotIf(po.IsCompl())
	}
	return out
}
