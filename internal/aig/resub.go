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
	// Window bounds the CNF cone encoded per proof (sound for acceptance).
	Window int
	// MaxProofs bounds the SAT proof attempts per node.
	MaxProofs int
}

// DefaultResubOptions returns sensible defaults.
func DefaultResubOptions() ResubOptions {
	return ResubOptions{Words: 8, SATBudget: 300, Seed: 1, Window: 600, MaxProofs: 6}
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
// proven equivalent with SAT and merged (0-resub). This is the
// Boolean-resubstitution stage of the paper's c2rs script.
func (g *AIG) Resub(opt ResubOptions) *AIG {
	done := startPass("resub", g)
	opt = opt.withDefaults()
	sigs := g.Signatures(opt.Words, opt.Seed)

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
	// One builder and solver for the whole pass; every proof resets it, so
	// its verdict is the one a fresh builder would give.
	cnf := NewCNFBuilder(g, sat.New(0))
	cnf.Limit = opt.Window
	proveEqual := func(x, y Lit) bool {
		cnf.Reset()
		res, _ := cnf.Prove(x, y, opt.SATBudget)
		return res == Proven
	}
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
			if proveEqual(MakeLit(v, false), False) {
				repl, replaced = False, true
			}
		} else if sigEqual(sigs[v], zero, true) {
			proofs++
			if proveEqual(MakeLit(v, false), True) {
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
					if proveEqual(MakeLit(v, false), MakeLit(d, compl)) {
						repl = m[d].NotIf(compl)
						replaced = true
						break
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
