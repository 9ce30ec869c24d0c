package spice_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/spice"
)

// beResidual checks that every sample of a transient solves the
// backward-Euler system of its own step. Sample k is put into the system
// assembled afresh at Time[k], with sample k−1 as the capacitor history and
// the step Time[k]−Time[k−1], and its residual G·x − b is bounded row by
// row by what Newton's acceptance leaves: a source row (a linear
// constraint) at most 1e-9 V, and a node row at most the larger of 1 pA
// and the current that moving every node by NewtonTolV could unbalance,
// NewtonTolV·Σⱼ|Gᵢⱼ| over the node columns. The check reads only the
// recorded samples, not the path Newton took to them, and returns the
// number of rows that break their bound with the worst row's description.
func beResidual(c *spice.Circuit, wf *spice.Waveform) (bad int, worst string) {
	xs := spice.Samples(wf)
	nNode := c.NumNodes()
	worstScore := 1.0
	for k := 1; k < len(xs); k++ {
		x, prev := xs[k], xs[k-1]
		g, b := spice.AssembleGeneric(c, wf.Time[k], prev, wf.Time[k]-wf.Time[k-1], spice.BaseGmin, c.Temp, x)
		for i := range b {
			r := -b[i]
			var gsum float64
			for j, v := range x {
				gij := g.At(i, j)
				r += gij * v
				if j < nNode {
					gsum += math.Abs(gij)
				}
			}
			bound := 1e-9
			if i < nNode {
				bound = max(1e-12, spice.NewtonTolV*gsum)
			}
			if score := math.Abs(r) / bound; score > 1 {
				bad++
				if score > worstScore {
					worstScore = score
					row := "branch"
					if i < nNode {
						row = c.NodeName(spice.NodeID(i))
					}
					worst = fmt.Sprintf("t=%g row %d (%s): residual %.3g, bound %.3g", wf.Time[k], i, row, r, bound)
				}
			}
		}
	}
	return bad, worst
}

// TestBackwardEulerResidual runs every transient of the digest testbenches
// and requires each sample to solve its step's backward-Euler system within
// Newton's acceptance (beResidual). Unlike TestTransientDigest it does not
// pin the Newton path, so it holds for any start point of the iteration,
// and it fails when a step integrates from anything but the previous
// sample.
func TestBackwardEulerResidual(t *testing.T) {
	var runs, samples int
	transientDigests(t, func(c *spice.Circuit, wf *spice.Waveform) {
		runs++
		samples += len(wf.Time) - 1
		if bad, worst := beResidual(c, wf); bad > 0 {
			t.Errorf("%v: %d rows over their bound; worst %s", c, bad, worst)
		}
	})
	if runs == 0 {
		t.Fatal("no transient checked")
	}
	t.Logf("%d transients, %d steps checked", runs, samples)
}
