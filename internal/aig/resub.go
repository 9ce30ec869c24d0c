package aig

import (
	"math/rand"

	"repro/internal/sat"
)

// Signatures computes per-variable bit-parallel simulation signatures of the
// given width (in 64-bit words) under deterministic random stimulus.
func (g *AIG) Signatures(words int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([][]uint64, g.NumVars())
	for v := range sigs {
		sigs[v] = make([]uint64, words)
	}
	for i := 1; i <= g.numPI; i++ {
		for w := 0; w < words; w++ {
			sigs[i][w] = rng.Uint64()
		}
	}
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		n := &g.nodes[v]
		a := sigs[n.fan0.Var()]
		b := sigs[n.fan1.Var()]
		ac, bc := n.fan0.IsCompl(), n.fan1.IsCompl()
		dst := sigs[v]
		for w := 0; w < words; w++ {
			x, y := a[w], b[w]
			if ac {
				x = ^x
			}
			if bc {
				y = ^y
			}
			dst[w] = x & y
		}
	}
	return sigs
}

func sigEqual(a, b []uint64, compl bool) bool {
	for w := range a {
		x := b[w]
		if compl {
			x = ^x
		}
		if a[w] != x {
			return false
		}
	}
	return true
}

func sigHash(a []uint64, compl bool) uint64 {
	var h uint64 = 14695981039346656037
	for _, w := range a {
		if compl {
			w = ^w
		}
		h = (h ^ w) * 1099511628211
	}
	return h
}

// ResubOptions tunes SAT-based resubstitution. Zero-valued fields take their
// DefaultResubOptions value; a negative SATBudget or Window is unbounded.
type ResubOptions struct {
	Words     int   // simulation signature width in 64-bit words
	SATBudget int64 // conflict budget per proof
	Seed      int64
	// MaxPairs bounds the divisor-pair search per node for 1-resub.
	MaxPairs int
	// Window bounds the CNF cone encoded per proof (sound for acceptance).
	Window int
	// MaxProofs bounds the SAT proof attempts per node.
	MaxProofs int
}

// DefaultResubOptions returns sensible defaults.
func DefaultResubOptions() ResubOptions {
	return ResubOptions{Words: 8, SATBudget: 300, Seed: 1, MaxPairs: 64, Window: 600, MaxProofs: 6}
}

// withDefaults fills the zero-valued fields from DefaultResubOptions.
func (o ResubOptions) withDefaults() ResubOptions {
	d := DefaultResubOptions()
	if o.Words == 0 {
		o.Words = d.Words
	}
	if o.SATBudget == 0 {
		o.SATBudget = d.SATBudget
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.MaxPairs == 0 {
		o.MaxPairs = d.MaxPairs
	}
	if o.Window == 0 {
		o.Window = d.Window
	}
	if o.MaxProofs == 0 {
		o.MaxProofs = d.MaxProofs
	}
	return o
}

// Resub performs SAT-sweeping-style Boolean resubstitution: nodes whose
// simulation signature matches an earlier node (up to complement) are
// proven equivalent with SAT and merged (0-resub); nodes whose function
// equals the AND of two earlier divisors with smaller cost are replaced
// (1-resub). This is the Boolean-resubstitution stage of the paper's c2rs
// script.
func (g *AIG) Resub(opt ResubOptions) *AIG {
	done := startPass("resub", g)
	opt = opt.withDefaults()
	sigs := g.Signatures(opt.Words, opt.Seed)
	refs := g.FanoutCounts()

	out := New(g.Name)
	m := make([]Lit, g.NumVars())
	m[0] = False
	for i := 0; i < g.numPI; i++ {
		m[i+1] = out.AddPI(g.pis[i])
	}
	// Hash earlier nodes by signature for 0-resub candidates; store old
	// variables.
	byHash := make(map[uint64][]int)
	zero := make([]uint64, opt.Words)
	for i := 1; i <= g.numPI; i++ {
		byHash[sigHash(sigs[i], false)] = append(byHash[sigHash(sigs[i], false)], i)
	}

	for v := g.numPI + 1; v < g.NumVars(); v++ {
		f0, f1 := g.Fanins(v)
		dflt := out.And(m[f0.Var()].NotIf(f0.IsCompl()), m[f1.Var()].NotIf(f1.IsCompl()))
		repl := dflt
		replaced := false

		proofs := 0
		// Constant detection.
		if sigEqual(sigs[v], zero, false) {
			proofs++
			if eq, proven := ProveEqualWindow(g, MakeLit(v, false), False, opt.SATBudget, opt.Window); eq && proven {
				repl, replaced = False, true
			}
		} else if sigEqual(sigs[v], zero, true) {
			proofs++
			if eq, proven := ProveEqualWindow(g, MakeLit(v, false), True, opt.SATBudget, opt.Window); eq && proven {
				repl, replaced = True, true
			}
		}

		// 0-resub: equivalent (possibly complemented) earlier node.
		if !replaced {
			for _, compl := range []bool{false, true} {
				if replaced {
					break
				}
				for _, d := range byHash[sigHash(sigs[v], compl)] {
					if proofs >= opt.MaxProofs {
						break
					}
					if d == v || !sigEqual(sigs[v], sigs[d], compl) {
						continue
					}
					proofs++
					eq, proven := ProveEqualWindow(g, MakeLit(v, false), MakeLit(d, compl), opt.SATBudget, opt.Window)
					if eq && proven {
						repl = m[d].NotIf(compl)
						replaced = true
						break
					}
				}
			}
		}

		// 1-resub: v == AND of two divisors drawn from its fanin
		// neighborhood, profitable when the MFFC releases nodes.
		if !replaced && refs[v] > 0 {
			divs := g.divisors(v, 24)
			mffc := g.MFFCSize(v, []int{f0.Var(), f1.Var()}, refs)
			if mffc >= 2 {
				pairs := 0
			searchPairs:
				for i := 0; i < len(divs) && pairs < opt.MaxPairs; i++ {
					for j := i + 1; j < len(divs) && pairs < opt.MaxPairs; j++ {
						for mask := 0; mask < 4; mask++ {
							pairs++
							da, db := divs[i], divs[j]
							ca, cb := mask&1 != 0, mask&2 != 0
							if !sigIsAnd(sigs[v], sigs[da], sigs[db], ca, cb) {
								continue
							}
							if proofs >= opt.MaxProofs {
								break searchPairs
							}
							proofs++
							if g.proveIsAnd(v, MakeLit(da, ca), MakeLit(db, cb), opt.SATBudget, opt.Window) {
								repl = out.And(m[da].NotIf(ca), m[db].NotIf(cb))
								replaced = true
								break searchPairs
							}
						}
					}
				}
			}
		}
		m[v] = repl
		// Make v available as a 0-resub divisor for later nodes.
		byHash[sigHash(sigs[v], false)] = append(byHash[sigHash(sigs[v], false)], v)
	}
	for i, po := range g.pos {
		out.AddPO(m[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	swept := out.Sweep()
	done(swept)
	return swept
}

// proveIsAnd checks with SAT that node v equals the conjunction of the two
// divisor literals, using an auxiliary Tseitin variable so no node has to be
// added to the graph.
func (g *AIG) proveIsAnd(v int, la, lb Lit, budget int64, window int) bool {
	s := newBudgetSolver(budget)
	cb := NewCNFBuilder(g, s)
	cb.Limit = window
	sv := sat.L(cb.SatVar(v), false)
	sa := cb.SatLit(la)
	sb := cb.SatLit(lb)
	t := sat.L(s.AddVar(), false)
	s.AddClause(t.Not(), sa)
	s.AddClause(t.Not(), sb)
	s.AddClause(t, sa.Not(), sb.Not())
	if s.Solve(sv, t.Not()) != sat.Unsat {
		return false
	}
	return s.Solve(sv.Not(), t) == sat.Unsat
}

func newBudgetSolver(budget int64) *sat.Solver {
	s := sat.New(0)
	s.ConflictBudget = budget
	return s
}

// sigIsAnd checks sig(v) == sig(a)^ca & sig(b)^cb.
func sigIsAnd(v, a, b []uint64, ca, cb bool) bool {
	for w := range v {
		x, y := a[w], b[w]
		if ca {
			x = ^x
		}
		if cb {
			y = ^y
		}
		if v[w] != x&y {
			return false
		}
	}
	return true
}

// divisors collects candidate divisor variables from the two-level fanin
// neighborhood of v (excluding v itself), capped at limit.
func (g *AIG) divisors(v, limit int) []int {
	seen := map[int]bool{v: true}
	var out []int
	var frontier []int
	f0, f1 := g.Fanins(v)
	frontier = append(frontier, f0.Var(), f1.Var())
	for depth := 0; depth < 3 && len(out) < limit; depth++ {
		var next []int
		for _, u := range frontier {
			if u == 0 || seen[u] {
				continue
			}
			seen[u] = true
			out = append(out, u)
			if len(out) >= limit {
				break
			}
			if g.IsAnd(u) {
				a, b := g.Fanins(u)
				next = append(next, a.Var(), b.Var())
			}
		}
		frontier = next
	}
	return out
}
