package cec

import (
	"context"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/obs"
)

// maxSimInputs bounds the exhaustive-simulation phase: 2^16 patterns are
// 1,024 simulation words.
const maxSimInputs = 16

// simCheck decides the joint miter exactly by simulating every input
// pattern. Pattern p sets input i to bit i of p: the first six inputs take
// the fixed truth-table words, input i ≥ 6 is bit i-6 of the word index
// (below six inputs one word repeats the 2^n patterns). A difference makes
// the smallest differing pattern the counterexample and the lowest-index
// output that differs on it the failing output.
func simCheck(ctx context.Context, m *aig.AIG, outsA, outsB []aig.Lit, golden *aig.AIG) *Verdict {
	_, span := obs.Start(ctx, "cec.sim")
	defer span.End()
	n := m.NumPIs()
	words := 1 << max(n-6, 0)
	v := &Verdict{Status: Equal, Inputs: piNames(golden)}
	v.Stats = Stats{MiterNodes: m.NumNodes(), SimPatterns: 64 * words}
	span.SetAttr("patterns", v.Stats.SimPatterns)

	in := make([]uint64, n)
	for i := range in[:min(n, 6)] {
		in[i] = aig.Truth6Var(i)
	}
	vals := make([]uint64, m.NumVars())
	diff := func(o int) uint64 { return aig.EvalLit(vals, outsA[o]) ^ aig.EvalLit(vals, outsB[o]) }
	for w := 0; w < words; w++ {
		for i := 6; i < n; i++ {
			in[i] = -(uint64(w) >> (i - 6) & 1)
		}
		m.SimWordsInto(vals, in)
		var d uint64
		for o := range outsA {
			d |= diff(o)
		}
		if d == 0 {
			continue
		}
		b := bits.TrailingZeros64(d)
		p := 64*w + b
		cex := make([]bool, n)
		for i := range cex {
			cex[i] = p>>i&1 != 0
		}
		o := 0
		for diff(o)>>b&1 == 0 {
			o++
		}
		v.fail(golden, o, cex)
		break
	}
	return v
}
