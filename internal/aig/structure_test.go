package aig_test

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// TestSameStructure compares a balanced adder with rebuilds that change
// nothing and with copies that differ in exactly one place.
func TestSameStructure(t *testing.T) {
	g, err := epfl.Build("adder")
	if err != nil {
		t.Fatal(err)
	}
	base := g.Balance()
	last := base.NumVars() - 1
	for _, tc := range []struct {
		name string
		make func() *aig.AIG
		want bool
	}{
		{"balance of a balanced graph", func() *aig.AIG { return base.Balance() }, true},
		{"sweep", func() *aig.AIG { return base.Sweep() }, true},
		{"clone", func() *aig.AIG { return base.Clone() }, true},
		{"one fanin", func() *aig.AIG {
			h := base.Clone()
			f0, f1 := h.Fanins(last)
			h.SetFanins(last, f0, f1.Not())
			return h
		}, false},
		{"one PO polarity", func() *aig.AIG {
			h := base.Clone()
			h.SetPO(0, h.PO(0).Not())
			return h
		}, false},
		{"one PI name", func() *aig.AIG {
			h := base.Clone()
			h.SetPIName(0, h.PIName(0)+"_x")
			return h
		}, false},
		{"one PO name", func() *aig.AIG {
			h := base.Clone()
			h.SetPOName(0, h.POName(0)+"_x")
			return h
		}, false},
		{"graph name", func() *aig.AIG {
			h := base.Clone()
			h.Name += "_x"
			return h
		}, false},
		{"node count", func() *aig.AIG {
			h := base.Clone()
			if h.And(h.PO(0), h.PO(1).Not()); h.NumNodes() != base.NumNodes()+1 {
				t.Fatalf("extra AND node was hashed to an existing one")
			}
			return h
		}, false},
	} {
		h := tc.make()
		if got := base.SameStructure(h); got != tc.want {
			t.Errorf("%s: SameStructure = %v, want %v", tc.name, got, tc.want)
		}
		if got := h.SameStructure(base); got != tc.want {
			t.Errorf("%s: reversed SameStructure = %v, want %v", tc.name, got, tc.want)
		}
	}
}
