// Package linalg provides the linear algebra of the SPICE engine: a dense
// LU with partial pivoting (this file), used for systems of at most a few
// unknowns and as the cross-check oracle, and a sparse LU with a reusable
// symbolic factorization (sparse.go), used for everything larger. Both
// factor and solve in place into caller-owned storage, so a Newton loop
// allocates nothing per iteration.
package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N int
	A []float64
}

// NewMatrix returns a zeroed n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, A: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set sets element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.A, m.A)
	return c
}

// LU holds an LU factorization with its pivot permutation.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// Factor computes f as the LU factorization of m with partial pivoting,
// reusing f's storage when the size matches, so a zero LU refactored every
// Newton iteration allocates only once. m is not modified.
func (f *LU) Factor(m *Matrix) error {
	n := m.N
	if f.n != n || len(f.lu) != n*n {
		*f = LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	}
	copy(f.lu, m.A)
	f.sign = 1
	for i := range f.piv {
		f.piv[i] = i
	}
	a := f.lu
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		max := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max < 1e-300 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / pivot
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return nil
}

// SolveInto solves A*x = b into x without allocating. b is not modified;
// x must not alias b.
func (f *LU) SolveInto(x, b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// SolveSystem factors m and solves m*x = b in one call.
func SolveSystem(m *Matrix, b []float64) ([]float64, error) {
	var f LU
	if err := f.Factor(m); err != nil {
		return nil, err
	}
	x := make([]float64, m.N)
	f.SolveInto(x, b)
	return x, nil
}

// MaxAbsDiff returns the infinity-norm distance between two vectors of equal
// length.
func MaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
