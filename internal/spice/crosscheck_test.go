package spice_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pdk"
	"repro/internal/spice"
)

// buildCellCircuit instantiates one PDK cell at 10 K with DC inputs set from
// vec, mirroring the characterization leakage setup. Sequential cells get a
// permanent symmetry-breaking clamp on their state nodes so the operating
// point sits on a definite, well-conditioned branch — this test compares
// solver backends, not bistable branch selection.
func buildCellCircuit(t *testing.T, cell *pdk.Cell, vec int, kind spice.SolverKind) *spice.Circuit {
	t.Helper()
	const vdd = 0.55
	c := spice.New(10)
	c.Solver = kind
	vddN := c.Node("vdd")
	c.AddVSource(vddN, spice.Ground, spice.DC(vdd))
	pins := map[string]spice.NodeID{}
	for i, in := range cell.Inputs {
		node := c.Node("in_" + in)
		pins[in] = node
		v := 0.0
		if vec&(1<<uint(i)) != 0 {
			v = vdd
		}
		c.AddVSource(node, spice.Ground, spice.DC(v))
	}
	for _, out := range cell.Outputs {
		pins[out] = c.Node("out_" + out)
	}
	if err := cell.Build(c, "dut", pins, vddN); err != nil {
		t.Fatalf("%s: build: %v", cell.Name, err)
	}
	if cell.Seq {
		for _, state := range []string{"mi", "si", "li"} {
			if id, ok := c.LookupNode("dut." + state); ok {
				c.AddClamp(id, 0, spice.DC(0.05))
			}
		}
	}
	// A 1 GΩ leak on every node bounds the Jacobian condition number.
	// Nodes inside OFF tristate stacks otherwise sit on a gmin-scale
	// (1e-12 S) diagonal, and at condition numbers near 1e12 the two
	// backends' rounding differs above the 1e-9 V comparison bar for
	// reasons that have nothing to do with solver correctness.
	for id := 0; id < c.NumNodes(); id++ {
		c.AddResistor(spice.NodeID(id), spice.Ground, 1e9)
	}
	return c
}

// TestDenseSparseCrossCheck solves the DC operating point of every base cell
// in the PDK with both linear-solver backends and requires the node voltages
// to agree to 1e-9 V — the dense path is the oracle for the sparse LU with
// symbolic reuse. One drive strength per base suffices: drive variants scale
// device widths without changing the sparsity pattern.
func TestDenseSparseCrossCheck(t *testing.T) {
	seen := map[string]bool{}
	for _, cell := range pdk.Catalog() {
		if seen[cell.Base] {
			continue
		}
		seen[cell.Base] = true
		vecs := []int{0, 1<<uint(len(cell.Inputs)) - 1}
		for _, vec := range vecs {
			dense := buildCellCircuit(t, cell, vec, spice.SolverDense)
			sparse := buildCellCircuit(t, cell, vec, spice.SolverSparse)
			// Converge once with the dense oracle, then re-solve both
			// backends from that shared seed. Quasi-floating internal nodes
			// (femtoamp currents through OFF stacks) are only pinned to the
			// Newton tolerance, so two independent solves may differ at the
			// 1e-6 level; from a shared converged seed the Newton paths are
			// identical and any disagreement is the linear solver's.
			seed, err := dense.OpPoint()
			if err != nil {
				t.Fatalf("%s vec=%d: dense op point: %v", cell.Name, vec, err)
			}
			xd, err := dense.OpPointFrom(seed)
			if err != nil {
				t.Fatalf("%s vec=%d: dense re-solve: %v", cell.Name, vec, err)
			}
			xs, err := sparse.OpPointFrom(seed)
			if err != nil {
				t.Fatalf("%s vec=%d: sparse op point: %v", cell.Name, vec, err)
			}
			if len(xd) != len(xs) {
				t.Fatalf("%s vec=%d: system size mismatch %d vs %d", cell.Name, vec, len(xd), len(xs))
			}
			for i := range xd {
				if d := math.Abs(xd[i] - xs[i]); d > 1e-9 {
					t.Errorf("%s vec=%d: unknown %d (%s) differs by %.3e (dense %.12f sparse %.12f)",
						cell.Name, vec, i, nodeLabel(dense, i), d, xd[i], xs[i])
				}
			}
		}
	}
	if len(seen) < 50 {
		t.Fatalf("cross-check covered only %d base cells; catalog shrank?", len(seen))
	}
}

func nodeLabel(c *spice.Circuit, i int) string {
	if i < c.NumNodes() {
		return c.NodeName(spice.NodeID(i))
	}
	return "branch"
}

// TestTieredAssemblyMatchesGenericStamp checks the Newton loop's tiered
// assembly (cached constant tier, per-solve step tier, per-iteration
// MOSFET tier, stamped through the backend's slot binding) against one
// uncached stamping pass of every element into dense slots, for every PDK
// base cell on both backends. The sequence of
// solves alternates DC and transient mode and changes each part of the
// constant tier's key in turn — gmin, temperature, dt — and back, and
// each solve assembles two iterates. Both paths add the same terms in the
// same order, so G and b must agree bit for bit.
func TestTieredAssemblyMatchesGenericStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type solve struct {
		t, dt, gmin, temp float64
	}
	solves := []solve{
		{0, 0, 1e-12, 10}, {3e-11, 1e-12, 1e-12, 10}, // DC, then a step
		{0, 0, 1e-12, 10}, {4e-11, 1e-12, 1e-12, 10}, // each mode keeps its tier
		{0, 0, 1e-6, 10}, {0, 0, 1e-6, 77}, // DC: gmin, then temp
		{3.25e-11, 0.25e-12, 1e-12, 10},              // quarter-step retry: dt
		{5e-11, 1e-12, 1e-4, 10},                     // gmin rung in transient
		{6e-11, 1e-12, 1e-12, 10}, {0, 0, 1e-12, 10}, // back to the first keys
	}
	seen := map[string]bool{}
	for _, cell := range pdk.Catalog() {
		if seen[cell.Base] {
			continue
		}
		seen[cell.Base] = true
		for _, kind := range []spice.SolverKind{spice.SolverDense, spice.SolverSparse} {
			c := buildCellCircuit(t, cell, 1, kind)
			// Cover the elements the cell builder does not use: companion
			// capacitors and a time-varying current source.
			for i, out := range cell.Outputs {
				id, _ := c.LookupNode("out_" + out)
				c.AddCapacitor(id, spice.Ground, 1e-15)
				if i == 0 {
					c.AddISource(spice.Ground, id, spice.PWL([2]float64{0, 0}, [2]float64{1e-10, 1e-6}))
				}
			}
			n := spice.SystemSize(c)
			vec := func() []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = -0.1 + 0.9*rng.Float64()
				}
				return v
			}
			for _, s := range solves {
				var prev []float64
				if s.dt > 0 {
					prev = vec()
				}
				spice.PrepareTiers(c, s.t, prev, s.dt, s.gmin, s.temp)
				for it := 0; it < 2; it++ {
					x := vec()
					gt, bt := spice.AssembleTiered(c, x)
					gg, bg := spice.AssembleGeneric(c, s.t, prev, s.dt, s.gmin, s.temp, x)
					where := fmt.Sprintf("%s solver=%d %+v iterate %d", cell.Name, kind, s, it)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if gt.At(i, j) != gg.At(i, j) {
								t.Fatalf("%s: G[%d][%d] tiered %.17g, generic %.17g", where, i, j, gt.At(i, j), gg.At(i, j))
							}
						}
						if bt[i] != bg[i] {
							t.Fatalf("%s: b[%d] tiered %.17g, generic %.17g", where, i, bt[i], bg[i])
						}
					}
				}
			}
		}
	}
}
