package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	x, err := SolveSystem(m, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if MaxAbsDiff(x, want) > 1e-12 {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveSystem(m, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestPivotingRequired(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := SolveSystem(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	var f LU
	if err := f.Factor(m); err != ErrSingular {
		t.Errorf("Factor(singular) err = %v, want ErrSingular", err)
	}
}

func TestFactorReuse(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 4)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	var f LU
	if err := f.Factor(m); err != nil {
		t.Fatal(err)
	}
	x1, x2 := make([]float64, 2), make([]float64, 2)
	f.SolveInto(x1, []float64{1, 0})
	f.SolveInto(x2, []float64{0, 1})
	// Check A*x = b for both.
	check := func(x, b []float64) {
		for i := 0; i < 2; i++ {
			got := m.At(i, 0)*x[0] + m.At(i, 1)*x[1]
			if math.Abs(got-b[i]) > 1e-12 {
				t.Errorf("residual row %d: %v vs %v", i, got, b[i])
			}
		}
	}
	check(x1, []float64{1, 0})
	check(x2, []float64{0, 1})
}

// TestLUFactorInPlace refactors one LU over a sequence of matrices, as the
// SPICE dense backend does every Newton iteration: each solve must match a
// fresh factorization bit for bit, a singular matrix in between must not
// spoil the next factorization, and the steady state must not allocate.
func TestLUFactorInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 6
	var f LU
	x := make([]float64, n)
	b := make([]float64, n)
	for round := 0; round < 20; round++ {
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		if round == 7 {
			if err := f.Factor(NewMatrix(n)); err != ErrSingular {
				t.Fatalf("singular matrix: err = %v, want ErrSingular", err)
			}
		}
		if err := f.Factor(m); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(x, b)
		want, err := SolveSystem(m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("round %d: x[%d] = %v, fresh factorization %v", round, i, x[i], want[i])
			}
		}
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 2)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := f.Factor(m); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(x, b)
	}); allocs != 0 {
		t.Errorf("in-place factor and solve allocate %v times per run, want 0", allocs)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestQuickRandomSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			m.Add(i, i, float64(n)) // diagonal dominance -> well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveSystem(m, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
