package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSystem builds a random diagonally-loaded sparse system with ~extra
// off-diagonal entries per row, mirroring MNA structure (symmetric pattern,
// unsymmetric values), as both a dense Matrix and a compiled Sparse.
func randomSystem(rng *rand.Rand, n, extra int) (*Matrix, *Sparse) {
	type entry struct{ i, j int }
	seen := map[entry]bool{}
	p := NewPattern(n)
	for i := 0; i < n; i++ {
		p.Add(i, i)
		seen[entry{i, i}] = true
	}
	for k := 0; k < n*extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		// Symmetric pattern, like conductance stamps.
		for _, e := range []entry{{i, j}, {j, i}} {
			if !seen[e] {
				seen[e] = true
				p.Add(e.i, e.j)
			}
		}
	}
	s := p.Compile()
	m := NewMatrix(n)
	fill := func() {
		s.Zero()
		m.Zero()
		for j := 0; j < n; j++ {
			for q := s.ColPtr[j]; q < s.ColPtr[j+1]; q++ {
				i := int(s.Rows[q])
				v := rng.NormFloat64()
				if i == j {
					v += float64(extra) + 2 // keep it comfortably nonsingular
				}
				s.Vals[q] = v
				m.Set(i, j, v)
			}
		}
	}
	fill()
	return m, s
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSparseVsDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55} {
		for trial := 0; trial < 5; trial++ {
			m, s := randomSystem(rng, n, 3)
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want, err := SolveSystem(m, b)
			if err != nil {
				t.Fatalf("n=%d dense: %v", n, err)
			}
			lu, err := s.Factor(0.1)
			if err != nil {
				t.Fatalf("n=%d sparse factor: %v", n, err)
			}
			got := make([]float64, n)
			lu.SolveInto(got, b)
			if d := maxDiff(got, want); d > 1e-9 {
				t.Errorf("n=%d trial=%d sparse/dense mismatch: %g", n, trial, d)
			}
		}
	}
}

func TestSparseRefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	m, s := randomSystem(rng, n, 4)
	lu, err := s.Factor(0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	got := make([]float64, n)
	// Perturb the values (same pattern) repeatedly and refactor in place;
	// the solutions must track a dense solve of the same system.
	for round := 0; round < 10; round++ {
		for j := 0; j < n; j++ {
			for q := s.ColPtr[j]; q < s.ColPtr[j+1]; q++ {
				i := int(s.Rows[q])
				v := s.Vals[q] * (1 + 0.1*rng.NormFloat64())
				s.Vals[q] = v
				m.Set(i, j, v)
			}
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := lu.Refactor(); err != nil {
			t.Fatalf("round %d: refactor: %v", round, err)
		}
		lu.SolveInto(got, b)
		want, err := SolveSystem(m, b)
		if err != nil {
			t.Fatalf("round %d: dense: %v", round, err)
		}
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("round %d: refactor solution off by %g", round, d)
		}
	}
}

func TestSparsePermutationHeavy(t *testing.T) {
	// A cyclic permutation-like system with zero diagonal forces real
	// pivoting: x[i] coupled only off-diagonal.
	n := 9
	p := NewPattern(n)
	for i := 0; i < n; i++ {
		p.Add(i, (i+1)%n)
		p.Add((i+1)%n, i)
	}
	s := p.Compile()
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(3))
	for j := 0; j < n; j++ {
		for q := s.ColPtr[j]; q < s.ColPtr[j+1]; q++ {
			v := 1 + rng.Float64()
			s.Vals[q] = v
			m.Set(int(s.Rows[q]), j, v)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	want, err := SolveSystem(m, b)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := s.Factor(0.1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	lu.SolveInto(got, b)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Errorf("mismatch %g", d)
	}
}

func TestSparseSingular(t *testing.T) {
	p := NewPattern(3)
	for i := 0; i < 3; i++ {
		p.Add(i, i)
	}
	p.Add(0, 1)
	s := p.Compile()
	// Row 2 (and column 2) entirely zero.
	s.Vals[s.Slot(0, 0)] = 1
	s.Vals[s.Slot(1, 1)] = 1
	if _, err := s.Factor(0.1); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSparseRefactorDrift(t *testing.T) {
	// Factor with a dominant diagonal, then collapse the pivot that was
	// chosen so the frozen order becomes unstable; Refactor must refuse
	// rather than return garbage, and a fresh Factor must recover.
	p := NewPattern(2)
	p.Add(0, 0)
	p.Add(1, 0)
	p.Add(0, 1)
	p.Add(1, 1)
	s := p.Compile()
	set := func(a, b, c, d float64) {
		s.Vals[s.Slot(0, 0)] = a
		s.Vals[s.Slot(0, 1)] = b
		s.Vals[s.Slot(1, 0)] = c
		s.Vals[s.Slot(1, 1)] = d
	}
	set(1, 1, 1, 2)
	lu, err := s.Factor(0.1)
	if err != nil {
		t.Fatal(err)
	}
	set(1e-14, 1, 1, 2) // the (0,0) pivot candidate vanishes
	if err := lu.Refactor(); err != ErrPivotDrift {
		t.Fatalf("want ErrPivotDrift, got %v", err)
	}
	lu2, err := s.Factor(0.1)
	if err != nil {
		t.Fatalf("fresh factor after drift: %v", err)
	}
	bvec := []float64{1, 1}
	got := make([]float64, 2)
	lu2.SolveInto(got, bvec)
	m := NewMatrix(2)
	m.Set(0, 0, 1e-14)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	want, err := SolveSystem(m, bvec)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d > 1e-9 {
		t.Errorf("post-drift solve off by %g", d)
	}
}

func TestSparseSlotAndMulVec(t *testing.T) {
	p := NewPattern(3)
	p.Add(0, 0)
	p.Add(0, 0) // duplicate collapses
	p.Add(2, 0)
	p.Add(1, 1)
	p.Add(0, 2)
	p.Add(2, 2)
	s := p.Compile()
	if s.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", s.NNZ())
	}
	if s.Slot(1, 0) != -1 || s.Slot(2, 1) != -1 {
		t.Error("phantom slots")
	}
	s.Vals[s.Slot(0, 0)] = 2
	s.Vals[s.Slot(2, 0)] = 3
	s.Vals[s.Slot(1, 1)] = 4
	s.Vals[s.Slot(0, 2)] = 5
	s.Vals[s.Slot(2, 2)] = 6
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	s.MulVecInto(dst, x)
	want := []float64{2*1 + 5*3, 4 * 2, 3*1 + 6*3}
	if d := maxDiff(dst, want); d != 0 {
		t.Errorf("matvec = %v, want %v", dst, want)
	}
	// Dense counterpart.
	m := NewMatrix(3)
	m.Set(0, 0, 2)
	m.Set(2, 0, 3)
	m.Set(1, 1, 4)
	m.Set(0, 2, 5)
	m.Set(2, 2, 6)
	m.MulVecInto(dst, x)
	if d := maxDiff(dst, want); d != 0 {
		t.Errorf("dense matvec = %v, want %v", dst, want)
	}
}

func TestSparseFillInReported(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, s := randomSystem(rng, 30, 3)
	lu, err := s.Factor(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if lu.FillIn() < 0 {
		t.Errorf("negative fill-in %d", lu.FillIn())
	}
}
