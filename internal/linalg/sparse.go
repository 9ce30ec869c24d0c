// Sparse linear algebra for the SPICE engine: compressed-sparse-column
// matrices with a frozen pattern, Gilbert-Peierls LU factorization with
// threshold partial pivoting (Markowitz tie-breaks), and symbolic
// factorization that is computed once per sparsity pattern and reused across
// numeric refactorizations. MNA systems are >90% structurally zero even for
// small cells, and the pattern is fixed per circuit topology, so the
// characterization inner loop pays only for the nonzeros.
package linalg

import (
	"errors"
	"math"
	"sort"
)

// ErrPivotDrift is returned by Refactor when a pivot chosen during the
// original factorization has become numerically unacceptable for the current
// values. The caller should re-run Factor to pick a fresh pivot order.
var ErrPivotDrift = errors.New("linalg: pivot drifted; refactorization needs fresh pivot order")

// Pattern accumulates the sparsity pattern of a square matrix before it is
// frozen into a Sparse. Duplicate Add calls are deduplicated at Compile.
type Pattern struct {
	n    int
	cols [][]int32
}

// NewPattern returns an empty n x n pattern.
func NewPattern(n int) *Pattern {
	return &Pattern{n: n, cols: make([][]int32, n)}
}

// Add records that entry (i, j) may be nonzero.
func (p *Pattern) Add(i, j int) {
	p.cols[j] = append(p.cols[j], int32(i))
}

// Compile freezes the pattern into a zero-valued Sparse matrix with sorted,
// deduplicated columns. Every structural diagonal entry callers rely on must
// have been Added; Compile does not insert any.
func (p *Pattern) Compile() *Sparse {
	s := &Sparse{N: p.n, ColPtr: make([]int32, p.n+1)}
	for j, col := range p.cols {
		sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
		prev := int32(-1)
		for _, r := range col {
			if r != prev {
				s.Rows = append(s.Rows, r)
				prev = r
			}
		}
		s.ColPtr[j+1] = int32(len(s.Rows))
	}
	s.Vals = make([]float64, len(s.Rows))
	return s
}

// Sparse is a square sparse matrix in compressed-sparse-column form with a
// frozen pattern: ColPtr/Rows never change after Compile, so stamping writes
// through stable slot indices into Vals and factorizations can cache their
// symbolic analysis against the pattern.
type Sparse struct {
	N      int
	ColPtr []int32 // len N+1; column j occupies [ColPtr[j], ColPtr[j+1])
	Rows   []int32 // row index per entry, sorted within each column
	Vals   []float64
}

// NNZ returns the number of structural nonzeros.
func (s *Sparse) NNZ() int { return len(s.Rows) }

// Zero clears all values, keeping the pattern.
func (s *Sparse) Zero() {
	for i := range s.Vals {
		s.Vals[i] = 0
	}
}

// Slot returns the index into Vals of entry (i, j), or -1 when (i, j) is not
// in the pattern. Columns are sorted, so the lookup is a binary search over
// the handful of entries in column j.
func (s *Sparse) Slot(i, j int) int {
	lo, hi := s.ColPtr[j], s.ColPtr[j+1]
	r := int32(i)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.ColPtr[j+1] && s.Rows[lo] == r {
		return int(lo)
	}
	return -1
}

// At returns entry (i, j), zero when outside the pattern.
func (s *Sparse) At(i, j int) float64 {
	if slot := s.Slot(i, j); slot >= 0 {
		return s.Vals[slot]
	}
	return 0
}

// MulVecInto computes dst = S*x without allocating.
func (s *Sparse) MulVecInto(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < s.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			dst[s.Rows[p]] += s.Vals[p] * xj
		}
	}
}

// SparseLU is an LU factorization of a Sparse matrix: PA = LU with L unit
// lower triangular and U upper triangular, both column-compressed in pivot
// order. The symbolic structure (pivot order, fill pattern, update schedule)
// is computed once by Factor; Refactor redoes only the numeric work, in
// place, with zero allocations — the SPICE Newton loop's steady state.
type SparseLU struct {
	a   *Sparse
	n   int
	tol float64

	perm []int32 // perm[k] = original row sitting at pivot position k
	apos []int32 // apos[p] = pivot position of A's entry p (of row a.Rows[p])

	// L: column k holds entries at pivot positions > k (unit diagonal
	// implicit). U: column k holds entries at pivot positions < k in
	// increasing order, then the diagonal (position k) last — the order the
	// refactorization replay and the triangular solves need.
	lp, li []int32
	lx     []float64
	up, ui []int32
	ux     []float64

	work []float64 // dense accumulator, kept all-zero between uses
}

// minPivot is the hard floor below which a pivot counts as singular.
const minPivot = 1e-300

// driftTol is the Refactor stability bound: a replayed pivot smaller than
// driftTol times the largest candidate magnitude in its column means the
// frozen pivot order is no longer numerically viable.
const driftTol = 1e-5

// Factor computes an LU factorization of s using Gilbert-Peierls sparse LU
// with threshold partial pivoting: any row whose magnitude is within tol of
// the column maximum is an acceptable pivot, and among acceptable rows the
// one with the lowest static Markowitz count (fewest nonzeros in its row of
// s) is chosen to limit fill-in. tol in (0, 1]; tol = 1 is classic partial
// pivoting, smaller values trade growth for sparsity.
func (s *Sparse) Factor(tol float64) (*SparseLU, error) {
	if tol <= 0 || tol > 1 {
		tol = 0.1
	}
	n := s.N
	lu := &SparseLU{
		a: s, n: n, tol: tol,
		perm: make([]int32, n),
		lp:   make([]int32, n+1),
		up:   make([]int32, n+1),
		work: make([]float64, n),
	}
	// Static Markowitz tie-break counts: nonzeros per row of A.
	rowCount := make([]int32, n)
	for _, r := range s.Rows {
		rowCount[r]++
	}
	pinv := make([]int32, n) // pinv[orig] = pivot position, -1 while unpivoted
	for i := range pinv {
		pinv[i] = -1
	}
	x := lu.work
	pattern := make([]int32, n) // reach of A(:,k), topological order in [top, n)
	stack := make([]int32, n)   // DFS node stack
	pstack := make([]int32, n)  // DFS child-pointer stack
	visited := make([]int32, n) // visited[i] == k marks i reached for column k
	for i := range visited {
		visited[i] = -1
	}
	est := 4 * s.NNZ()
	lu.li = make([]int32, 0, est)
	lu.lx = make([]float64, 0, est)
	lu.ui = make([]int32, 0, est)
	lu.ux = make([]float64, 0, est)

	for k := 0; k < n; k++ {
		// Symbolic: depth-first reach of A(:,k) through the columns of L
		// built so far. During factorization L rows are original indices;
		// a node's children exist only once the node has been pivoted.
		top := n
		for p := s.ColPtr[k]; p < s.ColPtr[k+1]; p++ {
			r := s.Rows[p]
			if visited[r] == int32(k) {
				continue
			}
			head := 0
			stack[0] = r
			pstack[0] = 0
			visited[r] = int32(k)
			for head >= 0 {
				node := stack[head]
				var child int32 = -1
				if pk := pinv[node]; pk >= 0 {
					for q := lu.lp[pk] + pstack[head]; q < lu.lp[pk+1]; q++ {
						c := lu.li[q]
						pstack[head]++
						if visited[c] != int32(k) {
							child = c
							break
						}
					}
				}
				if child >= 0 {
					head++
					stack[head] = child
					pstack[head] = 0
					visited[child] = int32(k)
					continue
				}
				head--
				top--
				pattern[top] = node
			}
		}
		// Numeric: sparse triangular solve x = L \ A(:,k) over the reach.
		for t := top; t < n; t++ {
			x[pattern[t]] = 0
		}
		for p := s.ColPtr[k]; p < s.ColPtr[k+1]; p++ {
			x[s.Rows[p]] = s.Vals[p]
		}
		for t := top; t < n; t++ {
			node := pattern[t]
			pk := pinv[node]
			if pk < 0 {
				continue
			}
			xn := x[node]
			if xn == 0 {
				continue
			}
			for q := lu.lp[pk]; q < lu.lp[pk+1]; q++ {
				x[lu.li[q]] -= lu.lx[q] * xn
			}
		}
		// Pivot: among not-yet-pivotal rows within tol of the column max,
		// take the sparsest row (static Markowitz count); break ties toward
		// larger magnitude, then smaller row index, for determinism.
		var cmax float64
		for t := top; t < n; t++ {
			node := pattern[t]
			if pinv[node] < 0 {
				if a := math.Abs(x[node]); a > cmax {
					cmax = a
				}
			}
		}
		if cmax < minPivot {
			lu.clearColumn(pattern, top)
			return nil, ErrSingular
		}
		var pivRow int32 = -1
		var pivAbs float64
		for t := top; t < n; t++ {
			node := pattern[t]
			if pinv[node] >= 0 {
				continue
			}
			a := math.Abs(x[node])
			if a < tol*cmax {
				continue
			}
			if pivRow < 0 ||
				rowCount[node] < rowCount[pivRow] ||
				(rowCount[node] == rowCount[pivRow] && (a > pivAbs || (a == pivAbs && node < pivRow))) {
				pivRow, pivAbs = node, a
			}
		}
		pivot := x[pivRow]
		// Emit U column k: pivotal entries sorted by pivot position, then
		// the diagonal. The sort runs once per pattern, never in Refactor.
		ustart := len(lu.ui)
		for t := top; t < n; t++ {
			node := pattern[t]
			if pk := pinv[node]; pk >= 0 {
				lu.ui = append(lu.ui, pk)
				lu.ux = append(lu.ux, x[node])
			}
		}
		sortPairs(lu.ui[ustart:], lu.ux[ustart:])
		lu.ui = append(lu.ui, int32(k))
		lu.ux = append(lu.ux, pivot)
		lu.up[k+1] = int32(len(lu.ui))
		// Emit L column k (original row indices for now; remapped below).
		for t := top; t < n; t++ {
			node := pattern[t]
			if pinv[node] < 0 && node != pivRow {
				lu.li = append(lu.li, node)
				lu.lx = append(lu.lx, x[node]/pivot)
			}
		}
		lu.lp[k+1] = int32(len(lu.li))
		pinv[pivRow] = int32(k)
		lu.clearColumn(pattern, top)
	}
	// All rows are pivotal now: remap L's row indices into pivot positions
	// so Refactor and SolveInto run entirely in permuted space.
	for p := range lu.li {
		lu.li[p] = pinv[lu.li[p]]
	}
	for i, k := range pinv {
		lu.perm[k] = int32(i)
	}
	lu.apos = make([]int32, len(s.Rows))
	for p, r := range s.Rows {
		lu.apos[p] = pinv[r]
	}
	return lu, nil
}

// clearColumn restores the all-zero work-array invariant after a column.
func (lu *SparseLU) clearColumn(pattern []int32, top int) {
	for t := top; t < lu.n; t++ {
		lu.work[pattern[t]] = 0
	}
}

// sortPairs sorts keys ascending, permuting vals alongside. Columns hold a
// handful of entries, so insertion sort beats anything allocating.
func sortPairs(keys []int32, vals []float64) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

// Refactor recomputes the numeric factorization for the current values of
// the matrix it was factored from, reusing the symbolic analysis: pivot
// order, fill pattern, and update schedule are replayed as recorded, with no
// allocation and no search. It fails with ErrPivotDrift when a frozen pivot
// has become too small relative to its column, and ErrSingular when a column
// vanishes outright; on failure the caller re-Factors for a fresh pivot
// order.
func (lu *SparseLU) Refactor() error {
	a := lu.a
	x := lu.work
	// Hoist the index/value arrays: the compiler cannot prove lu's fields
	// don't alias the x writes, so field accesses inside the elimination
	// loop would reload through the pointer every iteration. The loops run
	// over re-sliced column ranges, which leaves one bounds check per
	// column instead of one per entry.
	up, ui, ux := lu.up, lu.ui, lu.ux
	lp, li, lx := lu.lp, lu.li, lu.lx
	colPtr, apos, avals := a.ColPtr, lu.apos, a.Vals
	for k := 0; k < lu.n; k++ {
		// Scatter A(:,k) into pivot-position space. The fill positions of
		// this column are already zero (all-zero work invariant).
		pos := apos[colPtr[k]:colPtr[k+1]]
		vals := avals[colPtr[k]:colPtr[k+1]]
		vals = vals[:len(pos)]
		for p, r := range pos {
			x[r] = vals[p]
		}
		// Replay the eliminations in increasing pivot-position order.
		ud := up[k+1] - 1 // diagonal entry, stored last
		urows := ui[up[k]:ud]
		uvals := ux[up[k]:ud]
		uvals = uvals[:len(urows)]
		for t, r := range urows {
			ukj := x[r]
			uvals[t] = ukj
			if ukj == 0 {
				continue
			}
			lrows := li[lp[r]:lp[r+1]]
			lvals := lx[lp[r]:lp[r+1]]
			lvals = lvals[:len(lrows)]
			for q, i := range lrows {
				x[i] -= lvals[q] * ukj
			}
		}
		pivot := x[int32(k)]
		ux[ud] = pivot
		// Stability: compare the replayed pivot against the candidates
		// partial pivoting would choose among (the L positions + diagonal).
		lrows := li[lp[k]:lp[k+1]]
		lvals := lx[lp[k]:lp[k+1]]
		lvals = lvals[:len(lrows)]
		cmax := math.Abs(pivot)
		for _, i := range lrows {
			if a := math.Abs(x[i]); a > cmax {
				cmax = a
			}
		}
		bad := math.Abs(pivot) < minPivot || math.Abs(pivot) < driftTol*cmax
		if bad {
			// Restore the work invariant before reporting.
			x[int32(k)] = 0
			for _, r := range urows {
				x[r] = 0
			}
			for _, i := range lrows {
				x[i] = 0
			}
			if cmax < minPivot {
				return ErrSingular
			}
			return ErrPivotDrift
		}
		for q, i := range lrows {
			lvals[q] = x[i] / pivot
			x[i] = 0
		}
		for _, r := range ui[up[k] : ud+1] {
			x[r] = 0
		}
	}
	return nil
}

// SolveInto solves A*x = b using the factorization, writing the solution
// into x without allocating. x and b must have length N and must not alias.
func (lu *SparseLU) SolveInto(x, b []float64) {
	up, ui, ux := lu.up, lu.ui, lu.ux
	lp, li, lx := lu.lp, lu.li, lu.lx
	n := lu.n
	x = x[:n]
	// Permute: (PA)x = Pb.
	for k, r := range lu.perm[:n] {
		x[k] = b[r]
	}
	// Forward solve L y = Pb (unit diagonal, column-major).
	for k, xk := range x {
		if xk == 0 {
			continue
		}
		rows := li[lp[k]:lp[k+1]]
		vals := lx[lp[k]:lp[k+1]]
		vals = vals[:len(rows)]
		for q, i := range rows {
			x[i] -= vals[q] * xk
		}
	}
	// Back solve U x = y (diagonal stored last per column).
	for k := n - 1; k >= 0; k-- {
		ud := up[k+1] - 1
		xk := x[k] / ux[ud]
		x[k] = xk
		if xk == 0 {
			continue
		}
		rows := ui[up[k]:ud]
		vals := ux[up[k]:ud]
		vals = vals[:len(rows)]
		for t, i := range rows {
			x[i] -= vals[t] * xk
		}
	}
}

// FillIn returns the number of entries in L and U (excluding L's implicit
// unit diagonal) beyond the nonzeros of the factored matrix — the fill the
// pivot ordering admitted.
func (lu *SparseLU) FillIn() int {
	return len(lu.li) + len(lu.ui) - lu.a.NNZ()
}

// MulVecInto computes dst = M*x without allocating (dense counterpart of
// Sparse.MulVecInto, used by the residual scan on the dense solver path).
func (m *Matrix) MulVecInto(dst, x []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		row := m.A[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}
