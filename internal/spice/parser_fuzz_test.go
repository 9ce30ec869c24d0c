package spice

import (
	"strings"
	"testing"
)

// FuzzParseNetlist checks that ParseNetlist never panics and that every
// .tran window it accepts passes the window check TransientFrom applies,
// so a parsed deck cannot crash the transient.
func FuzzParseNetlist(f *testing.F) {
	for _, deck := range []string{
		"V1 in 0 DC 1.0\nR1 in out 1k\nR2 out 0 1k\n.end\n",
		"* inverter\n.temp 10\nVdd vdd 0 DC 0.7\nVin in 0 PWL(0 0 10p 0 30p 0.7)\nM1 out in vdd vdd pfet nfin=2\nM2 out in 0 0 nfet nfin=2\nC1 out 0 1f\n.tran 0.5p 200p\n.end\n",
		"V1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 0)\nI1 0 in DC 1m ; source\n.tran 1p 1n\n",
		".tran 1f 1k\n",
		".tran nan 1n\n",
		".tran 1p inf\n",
	} {
		f.Add(deck)
	}
	f.Fuzz(func(t *testing.T, deck string) {
		res, err := ParseNetlist(strings.NewReader(deck), ParseOptions{})
		if err != nil || !res.HasTran {
			return
		}
		if err := checkWindow(res.Tstop, res.Tstep); err != nil {
			t.Fatalf("parsed .tran window fails the transient check: %v", err)
		}
	})
}
