// Package fit calibrates the cryogenic compact model against measurement
// datasets, playing the role of the paper's model-calibration step (Section
// II-C): parameter extraction so that SPICE lines agree with measured dots
// across the whole 300 K -> 10 K range.
package fit

import (
	"math"
	"sort"
)

// Objective is a scalar function to minimize.
type Objective func(x []float64) float64

// tolF is the convergence tolerance on the simplex's function spread.
const tolF = 1e-10

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	MaxIter int     // maximum iterations (default 2000)
	Scale   float64 // initial simplex displacement relative to |x| (default 0.05)
}

// NelderMead minimizes f starting from x0 using the downhill-simplex method.
// It returns the best point found and its objective value. The method is
// derivative-free, which suits the piecewise-physical compact-model
// objective.
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) ([]float64, float64) {
	if opt.MaxIter == 0 {
		opt.MaxIter = 2000
	}
	if opt.Scale == 0 {
		opt.Scale = 0.05
	}
	n := len(x0)
	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		x := append([]float64(nil), x0...)
		if i > 0 {
			d := opt.Scale * math.Abs(x[i-1])
			if d == 0 {
				d = opt.Scale
			}
			x[i-1] += d
		}
		simplex[i] = vertex{x, f(x)}
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	centroid := make([]float64, n)
	for iter := 0; iter < opt.MaxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if simplex[n].f-simplex[0].f < tolF {
			break
		}
		for j := 0; j < n; j++ {
			centroid[j] = 0
			for i := 0; i < n; i++ {
				centroid[j] += simplex[i].x[j]
			}
			centroid[j] /= float64(n)
		}
		reflect := make([]float64, n)
		for j := range reflect {
			reflect[j] = centroid[j] + alpha*(centroid[j]-simplex[n].x[j])
		}
		fr := f(reflect)
		switch {
		case fr < simplex[0].f:
			expand := make([]float64, n)
			for j := range expand {
				expand[j] = centroid[j] + gamma*(reflect[j]-centroid[j])
			}
			if fe := f(expand); fe < fr {
				simplex[n] = vertex{expand, fe}
			} else {
				simplex[n] = vertex{reflect, fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{reflect, fr}
		default:
			contract := make([]float64, n)
			for j := range contract {
				contract[j] = centroid[j] + rho*(simplex[n].x[j]-centroid[j])
			}
			if fc := f(contract); fc < simplex[n].f {
				simplex[n] = vertex{contract, fc}
			} else {
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return simplex[0].x, simplex[0].f
}
