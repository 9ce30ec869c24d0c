package spice

import "repro/internal/linalg"

// PrepareTiers assembles the constant tier of c's MNA system (from its
// cache while the key holds) and the step tier, as the Newton loop does
// once per solve.
func PrepareTiers(c *Circuit, t float64, prev []float64, dt, gmin, temp float64) {
	c.solverFor().prepare(t, prev, dt, gmin, temp)
}

// AssembleTiered completes the prepared system at iterate x, as the Newton
// loop does every iteration, and returns it as a dense matrix and
// right-hand side.
func AssembleTiered(c *Circuit, x []float64) (*linalg.Matrix, []float64) {
	st := c.solverFor()
	st.assemble(x)
	g := linalg.NewMatrix(st.n)
	for i := 0; i < st.n; i++ {
		for j := 0; j < st.n; j++ {
			if st.dense {
				g.Set(i, j, st.gd.At(i, j))
			} else {
				g.Set(i, j, st.sp.At(i, j))
			}
		}
	}
	return g, append([]float64(nil), st.b...)
}

// AssembleGeneric assembles the same system in one uncached stamping pass,
// the path the forensic residual probes use.
func AssembleGeneric(c *Circuit, t float64, prev []float64, dt, gmin, temp float64, x []float64) (*linalg.Matrix, []float64) {
	return c.stampGeneric(x, t, prev, dt, gmin, temp)
}

// SystemSize returns the number of MNA unknowns of c.
func SystemSize(c *Circuit) int { return c.systemSize() }
