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
	marks := newVarMarks(g.NumVars())

	out := newSized(g.Name, g.NumVars())
	m := make([]Lit, g.NumVars())
	m[0] = False
	for i := 0; i < g.numPI; i++ {
		m[i+1] = out.AddPI(g.pis[i])
	}
	// Hash earlier nodes by signature for 0-resub candidates; store old
	// variables.
	byHash := make(map[uint64][]int)
	zero := make([]uint64, opt.Words)
	// One builder and solver for the whole pass; every proof resets it.
	cnf := NewCNFBuilder(g, sat.New(0))
	cnf.Limit = opt.Window
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
			if eq, proven := cnf.proveEqual(MakeLit(v, false), False, opt.SATBudget); eq && proven {
				repl, replaced = False, true
			}
		} else if sigEqual(sigs[v], zero, true) {
			proofs++
			if eq, proven := cnf.proveEqual(MakeLit(v, false), True, opt.SATBudget); eq && proven {
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
					eq, proven := cnf.proveEqual(MakeLit(v, false), MakeLit(d, compl), opt.SATBudget)
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
			fanins := [2]int{f0.Var(), f1.Var()}
			if g.mffcSize(marks, v, fanins[:], refs) >= 2 {
				divs := g.divisors(marks, v, 24)
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
							if cnf.proveIsAnd(v, MakeLit(da, ca), MakeLit(db, cb), opt.SATBudget) {
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
// added to the graph. Like proveEqual it resets the builder first.
func (b *CNFBuilder) proveIsAnd(v int, la, lb Lit, budget int64) bool {
	b.Reset()
	s := b.S
	s.ConflictBudget = budget
	sv := sat.L(b.SatVar(v), false)
	sa := b.SatLit(la)
	sb := b.SatLit(lb)
	t := sat.L(s.AddVar(), false)
	s.AddClause(t.Not(), sa)
	s.AddClause(t.Not(), sb)
	s.AddClause(t, sa.Not(), sb.Not())
	if s.Solve(sv, t.Not()) != sat.Unsat {
		return false
	}
	return s.Solve(sv.Not(), t) == sat.Unsat
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
// neighborhood of v (excluding v itself), capped at limit. m is the pass's
// scratch; divisors leaves it cleared.
func (g *AIG) divisors(m *varMarks, v, limit int) []int {
	m.mark(v, 1)
	var out []int
	var frontier []int
	f0, f1 := g.Fanins(v)
	frontier = append(frontier, f0.Var(), f1.Var())
	for depth := 0; depth < 3 && len(out) < limit; depth++ {
		var next []int
		for _, u := range frontier {
			if u == 0 || m.val[u] != 0 {
				continue
			}
			m.mark(u, 1)
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
	m.clear()
	return out
}
