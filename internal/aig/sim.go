package aig

import "math/rand"

// SimWords simulates the AIG over bit-parallel input patterns: in[i] holds
// the 64 stimulus bits of PI i. It returns one word per variable.
func (g *AIG) SimWords(in []uint64) []uint64 {
	return g.SimWordsInto(make([]uint64, len(g.nodes)), in)
}

// SimWordsInto is SimWords writing into dst, which must hold one word per
// variable (NumVars); it returns dst. It does not allocate.
func (g *AIG) SimWordsInto(dst, in []uint64) []uint64 {
	if len(in) != g.numPI {
		panic("aig: SimWords input count mismatch")
	}
	vals := dst[:len(g.nodes)]
	vals[0] = 0
	copy(vals[1:], in)
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		a := vals[n.fan0.Var()]
		if n.fan0.IsCompl() {
			a = ^a
		}
		b := vals[n.fan1.Var()]
		if n.fan1.IsCompl() {
			b = ^b
		}
		vals[v] = a & b
	}
	return vals
}

// EvalLit extracts a literal's value from a SimWords result.
func EvalLit(vals []uint64, l Lit) uint64 {
	v := vals[l.Var()]
	if l.IsCompl() {
		return ^v
	}
	return v
}

// Eval computes the primary-output values for a single input assignment.
func (g *AIG) Eval(inputs []bool) []bool {
	words := make([]uint64, g.numPI)
	for i, b := range inputs {
		if b {
			words[i] = ^uint64(0)
		}
	}
	vals := g.SimWords(words)
	out := make([]bool, len(g.pos))
	for i, po := range g.pos {
		out[i] = EvalLit(vals, po)&1 != 0
	}
	return out
}

// RandomSim runs rounds*64 random patterns and returns the per-variable
// simulation signatures of the final round along with accumulated toggle
// statistics. Deterministic for a fixed seed.
func (g *AIG) RandomSim(rounds int, seed int64) (signature []uint64, toggles []float64) {
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, g.numPI)
	toggles = make([]float64, len(g.nodes))
	var prevBit []uint8
	total := 0
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		vals := g.SimWords(in)
		signature = vals
		// Count bit flips between consecutive pattern bits (temporal toggle
		// estimate under random stimulus).
		for v := range vals {
			w := vals[v]
			cnt := popcount((w ^ (w << 1)) &^ 1)
			if prevBit != nil {
				if uint8(w&1) != prevBit[v] {
					cnt++
				}
			}
			toggles[v] += float64(cnt)
			if prevBit == nil {
				prevBit = make([]uint8, len(vals))
			}
			prevBit[v] = uint8(w >> 63 & 1)
		}
		total += 64
	}
	for v := range toggles {
		toggles[v] /= float64(total)
	}
	return signature, toggles
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Probabilities propagates static signal probabilities from the PIs (each
// assumed 0.5, independent) through the graph. The result maps each
// variable to P(node = 1).
func (g *AIG) Probabilities() []float64 {
	p := make([]float64, len(g.nodes))
	p[0] = 0
	for i := 1; i <= g.numPI; i++ {
		p[i] = 0.5
	}
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		a := p[n.fan0.Var()]
		if n.fan0.IsCompl() {
			a = 1 - a
		}
		b := p[n.fan1.Var()]
		if n.fan1.IsCompl() {
			b = 1 - b
		}
		p[v] = a * b
	}
	return p
}

// Activities returns the switching-activity estimate per variable: the
// zero-delay toggle probability 2*p*(1-p) under the independence
// assumption. This is the cost ABC's power-aware passes use for
// technology-independent optimization.
func (g *AIG) Activities() []float64 {
	p := g.Probabilities()
	a := make([]float64, len(p))
	for v := range p {
		a[v] = 2 * p[v] * (1 - p[v])
	}
	return a
}
