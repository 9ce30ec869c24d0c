package cec

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/aig"
)

// sweepCheck is Check with the exhaustive-simulation phase off: the sweep
// decides every miter, however few its inputs. The tests pin the sweep
// engine on small circuits through it.
func sweepCheck(ctx context.Context, a, b *aig.AIG, opt Options) *Verdict {
	return check(ctx, a, b, opt, false)
}

// SweepCheck exports sweepCheck to the black-box tests.
var SweepCheck = sweepCheck

// RandomAIG builds a seeded random AIG over nPI inputs whose AND fanins
// lean toward recent nodes, so the graph has depth and reconvergence. It is
// exported for the black-box tests of this package.
func RandomAIG(rng *rand.Rand, nPI, nAnd, nPO int) *aig.AIG {
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(fmt.Sprintf("i%d", i)))
	}
	pick := func() aig.Lit {
		k := len(lits) - 1 - rng.Intn(min(len(lits), 12))
		if rng.Intn(4) == 0 {
			k = rng.Intn(len(lits))
		}
		return lits[k].NotIf(rng.Intn(2) == 0)
	}
	for k := 0; k < nAnd; k++ {
		if l := g.And(pick(), pick()); l.Var() > 0 {
			lits = append(lits, l.Reg())
		}
	}
	for o := 0; o < nPO; o++ {
		g.AddPO(pick(), fmt.Sprintf("o%d", o))
	}
	return g
}
