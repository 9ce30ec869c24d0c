package cec

import (
	"context"

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
