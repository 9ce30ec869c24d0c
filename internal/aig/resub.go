package aig

import "math/rand"

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

// Resub is 0-resubstitution, the Boolean-resubstitution stage of the
// paper's c2rs script: every node that simulates like an earlier node (up
// to complement) and is proven equal to it is merged onto it. It is a
// sweep of g on the engine cec.Check uses (Sweeper), seeded by seed: the
// reduced graph takes g's outputs and name, and loses whatever no output
// reaches.
func (g *AIG) Resub(seed int64) *AIG {
	done := startPass("resub", g)
	s := NewSweeper(g, seed)
	s.Run(nil)
	out := s.Reduced()
	out.Name = g.Name
	for i, po := range g.pos {
		out.AddPO(s.Lift(po), g.poNames[i])
	}
	swept := out.Sweep()
	done(swept)
	return swept
}
