package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmark sizes span the characterization workloads: 8 is a small
// combinational cell, 32 a flop with scan, 128 a stitched multi-cell DUT.
var benchSizes = []int{8, 32, 128}

// BenchmarkFactor compares the cost of a dense O(n^3) factorization against
// a fresh sparse symbolic+numeric factorization and a pattern-reusing
// numeric refactorization — the per-Newton-iteration costs of the three
// solver strategies.
func BenchmarkFactor(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		m, s := randomSystem(rng, n, 3)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			var f LU
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.Factor(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Factor(0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse-refactor/n=%d", n), func(b *testing.B) {
			lu, err := s.Factor(0.1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lu.Refactor(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve measures the triangular-solve cost given an existing
// factorization (the steady-state per-iteration work once the symbolic
// analysis is amortized away).
func BenchmarkSolve(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		m, s := randomSystem(rng, n, 3)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			var f LU
			if err := f.Factor(m); err != nil {
				b.Fatal(err)
			}
			x := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.SolveInto(x, rhs)
			}
		})
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			lu, err := s.Factor(0.1)
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lu.SolveInto(x, rhs)
			}
		})
	}
}
