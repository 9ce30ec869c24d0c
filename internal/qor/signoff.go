package qor

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/obs"
	"repro/internal/synth"
)

// signoffRounds is the number of 64-pattern words the functional signoff
// simulates on each mapped corner netlist before its QoR is recorded.
const signoffRounds = 4

// signoff cross-checks the mapped netlist against the source AIG on seeded
// bit-parallel patterns (synth.VerifyMapped). Any divergence is a hard flow
// error: QoR numbers measured on a functionally wrong netlist are worse
// than no numbers.
func signoff(ctx context.Context, g *aig.AIG, res *synth.Result, seed int64) error {
	_, span := obs.Start(ctx, "qor.signoff")
	span.SetAttr("design", res.Netlist.Name)
	defer span.End()
	if err := synth.VerifyMapped(g, res, signoffRounds, seed); err != nil {
		obs.C("qor.signoff.failures").Inc()
		return fmt.Errorf("signoff: %w", err)
	}
	obs.C("qor.signoff.passes").Inc()
	return nil
}
