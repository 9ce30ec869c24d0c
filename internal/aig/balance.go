package aig

import "sort"

// Balance rebuilds the AIG with AND-tree balancing: maximal single-fanout
// conjunction chains are collected into supergates and re-assembled as
// minimum-depth trees (pairing the two shallowest operands first, Huffman
// style). This is the classic `balance` pass that reduces depth without
// changing size much.
func (g *AIG) Balance() *AIG {
	done := startPass("balance", g)
	out := newSized(g.Name, g.NumVars())
	m := make([]Lit, g.NumVars())
	m[0] = False
	for i := 0; i < g.numPI; i++ {
		m[i+1] = out.AddPI(g.pis[i])
	}
	refs := g.FanoutCounts()
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		ops := g.collectSuper(MakeLit(v, false), refs, nil)
		mapped := make([]Lit, len(ops))
		for i, op := range ops {
			mapped[i] = m[op.Var()].NotIf(op.IsCompl())
		}
		m[v] = out.balanceAnd(mapped)
	}
	for i, po := range g.pos {
		out.AddPO(m[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	swept := out.Sweep()
	done(swept)
	return swept
}

// collectSuper gathers the operand literals of the maximal AND supergate
// rooted at l: non-complemented AND fanins with a single fanout are expanded
// recursively.
func (g *AIG) collectSuper(l Lit, refs []int, acc []Lit) []Lit {
	v := l.Var()
	if l.IsCompl() || !g.IsAnd(v) {
		return append(acc, l)
	}
	f0, f1 := g.Fanins(v)
	for _, f := range []Lit{f0, f1} {
		if !f.IsCompl() && g.IsAnd(f.Var()) && refs[f.Var()] == 1 {
			acc = g.collectSuper(f, refs, acc)
		} else {
			acc = append(acc, f)
		}
	}
	return acc
}

// balanceAnd combines operands into a depth-minimal AND tree by repeatedly
// pairing the two shallowest literals.
func (g *AIG) balanceAnd(ops []Lit) Lit {
	if len(ops) == 0 {
		return True
	}
	work := append([]Lit(nil), ops...)
	for len(work) > 1 {
		sort.Slice(work, func(i, j int) bool {
			return g.nodes[work[i].Var()].level > g.nodes[work[j].Var()].level
		})
		a := work[len(work)-1]
		b := work[len(work)-2]
		work = work[:len(work)-2]
		work = append(work, g.And(a, b))
	}
	return work[0]
}
