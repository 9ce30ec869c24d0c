package cec

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/netlist"
)

// Elaborate rebuilds a technology-mapped netlist as an AIG: every cell
// instance's boolean function is recovered from its PDK truth table (the
// same table the mapper's cut matching used) and expanded into AND/INV
// logic by Shannon decomposition, with structural hashing collapsing the
// shared structure. PI and PO names follow the netlist's port lists, so the
// result can be Check-ed directly against the synthesis flow's golden or
// optimized AIG. Constant ties (1'b0 / 1'b1) elaborate to the AIG's
// constant literals. The structural checks are netlist.Compile's.
func Elaborate(nl *netlist.Netlist) (*aig.AIG, error) {
	ng, err := netlist.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("cec: %w", err)
	}
	g := aig.New(nl.Name)
	lits := make([]aig.Lit, len(ng.Nets))
	lits[netlist.NetConst0] = aig.False
	lits[netlist.NetConst1] = aig.True
	for i, id := range ng.Inputs {
		lits[id] = g.AddPI(ng.InputNames[i])
	}
	for gi := range ng.Gates {
		node := &ng.Gates[gi]
		ins := make([]aig.Lit, len(node.In))
		for i, id := range node.In {
			ins[i] = lits[id]
		}
		lits[node.Out] = buildTruth(g, node.Truth, ins)
	}
	for o, id := range ng.Outputs {
		g.AddPO(lits[id], ng.OutputNames[o])
	}
	return g, nil
}

// buildTruth synthesizes the function given by truth table tt over the
// fanin literals ins (bit i of the row index is ins[i]) by recursive
// Shannon cofactoring on the highest input. The AIG's structural hashing
// and constant propagation keep the expansion compact.
func buildTruth(g *aig.AIG, tt uint64, ins []aig.Lit) aig.Lit {
	n := len(ins)
	if n == 0 {
		if tt&1 != 0 {
			return aig.True
		}
		return aig.False
	}
	rows := 1 << uint(n)
	if rows < 64 {
		tt &= 1<<uint(rows) - 1
	}
	switch tt {
	case 0:
		return aig.False
	case allOnes(rows):
		return aig.True
	}
	half := rows / 2
	loMask := allOnes(half)
	lo := buildTruth(g, tt&loMask, ins[:n-1])               // ins[n-1] = 0 cofactor
	hi := buildTruth(g, (tt>>uint(half))&loMask, ins[:n-1]) // ins[n-1] = 1 cofactor
	return g.Mux(ins[n-1], hi, lo)
}

// allOnes returns a mask of the given number of low bits (64 -> all bits).
func allOnes(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}
