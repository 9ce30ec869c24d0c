package aig

import "slices"

// Cut is a k-feasible cut: a set of leaf variables that covers every path
// from a node to the primary inputs.
type Cut struct {
	Leaves []int  // sorted variable indices
	sign   uint64 // Bloom-style signature for fast dominance checks
}

func newCut(leaves []int) Cut {
	c := Cut{Leaves: leaves}
	for _, v := range leaves {
		c.sign |= 1 << uint(v%64)
	}
	return c
}

// dominates reports whether c's leaf set is a subset of d's.
func (c Cut) dominates(d Cut) bool {
	if len(c.Leaves) > len(d.Leaves) || c.sign&^d.sign != 0 {
		return false
	}
	i := 0
	for _, v := range d.Leaves {
		if i < len(c.Leaves) && c.Leaves[i] == v {
			i++
		}
	}
	return i == len(c.Leaves)
}

// mergeLeaves appends the union of two sorted leaf sets to dst, failing if
// the union exceeds k leaves. The caller guarantees cap(dst)-len(dst) >= k,
// so the append never reallocates.
func mergeLeaves(dst []int, a, b []int, k int) ([]int, bool) {
	n := 0
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case a[i] > b[j]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if n == k {
			return dst, false
		}
		dst = append(dst, v)
		n++
	}
	return dst, true
}

// arena hands out capped subslices of chunks that are never reallocated, so
// a returned slice neither moves nor aliases another one: an append by its
// holder copies instead of clobbering a neighbour.
type arena[T any] struct {
	chunk []T
	size  int // minimum chunk length
}

func (a *arena[T]) alloc(n int) []T {
	if len(a.chunk)+n > cap(a.chunk) {
		a.chunk = make([]T, 0, max(a.size, n))
	}
	i := len(a.chunk)
	a.chunk = a.chunk[:i+n]
	return a.chunk[i : i+n : i+n]
}

// EnumerateCuts computes up to maxCuts k-feasible cuts per variable using
// the standard bottom-up merge with dominance pruning. The trivial cut {v}
// is always included (last). Index by variable. Leaves and per-variable cut
// lists are carved from chunked arenas owned by the result; each node's
// candidate set is built in scratch reused across nodes, and only the cuts
// it keeps are copied out.
func (g *AIG) EnumerateCuts(k, maxCuts int) [][]Cut {
	cuts := make([][]Cut, len(g.nodes))
	chunk := min(max(len(g.nodes), 64), 4096)
	leafArena := arena[int]{size: chunk * k}
	cutArena := arena[Cut]{size: chunk * maxCuts}
	single := func(leaves ...int) []Cut {
		out := cutArena.alloc(1)
		l := leafArena.alloc(len(leaves))
		copy(l, leaves)
		out[0] = newCut(l)
		return out
	}
	cuts[0] = single()
	for v := 1; v <= g.numPI; v++ {
		cuts[v] = single(v)
	}
	var set []Cut
	var scratch []int
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		c0 := cuts[n.fan0.Var()]
		c1 := cuts[n.fan1.Var()]
		// Every candidate's leaves stay in scratch until the node is done,
		// so reserve room for all merges up front.
		if need := len(c0) * len(c1) * k; cap(scratch) < need {
			scratch = make([]int, 0, need)
		}
		scratch = scratch[:0]
		set = set[:0]
		for _, a := range c0 {
			for _, b := range c1 {
				leaves, ok := mergeLeaves(scratch[len(scratch):], a.Leaves, b.Leaves, k)
				if !ok {
					continue
				}
				m := newCut(leaves[:len(leaves):len(leaves)])
				if dominatedByAny(set, m) {
					continue
				}
				scratch = scratch[:len(scratch)+len(leaves)]
				set = removeDominated(set, m)
				set = append(set, m)
			}
		}
		sortCutsBySize(set)
		if len(set) > maxCuts-1 {
			set = set[:maxCuts-1]
		}
		out := cutArena.alloc(len(set) + 1)
		for i, c := range set {
			l := leafArena.alloc(len(c.Leaves))
			copy(l, c.Leaves)
			out[i] = Cut{Leaves: l, sign: c.sign}
		}
		l := leafArena.alloc(1)
		l[0] = v
		out[len(set)] = newCut(l) // trivial cut
		cuts[v] = out
	}
	return cuts
}

// sortCutsBySize orders cuts by leaf count. The sort is not stable, and
// which equal-size cuts survive the maxCuts truncation depends on its exact
// permutation, so it must stay the pdqsort of sort.Slice: slices.SortFunc
// runs the same generated algorithm and comparisons without the reflection
// and closure allocations.
func sortCutsBySize(set []Cut) {
	slices.SortFunc(set, func(a, b Cut) int { return len(a.Leaves) - len(b.Leaves) })
}

func dominatedByAny(set []Cut, m Cut) bool {
	for _, c := range set {
		if c.dominates(m) {
			return true
		}
	}
	return false
}

func removeDominated(set []Cut, m Cut) []Cut {
	out := set[:0]
	for _, c := range set {
		if !m.dominates(c) {
			out = append(out, c)
		}
	}
	return out
}

// MFFCSize returns the size of the maximum fanout-free cone of variable v
// with respect to the given cut leaves: the number of AND nodes that would
// become dead if v were replaced by a different implementation. refs must be
// the current fanout counts.
func (g *AIG) MFFCSize(v int, leaves []int, refs []int) int {
	return g.mffcSize(newVarMarks(len(g.nodes)), v, leaves, refs)
}

// varMarks is per-variable scratch shared by the calls of one pass: every
// mark is zero between calls, and each call clears the marks it set before
// returning, so a call costs the cone it visits, not the graph.
type varMarks struct {
	val []int32
	set []int // variables with a nonzero mark
}

func newVarMarks(n int) *varMarks { return &varMarks{val: make([]int32, n)} }

// mark sets variable v's mark to x (nonzero).
func (m *varMarks) mark(v int, x int32) {
	if m.val[v] == 0 {
		m.set = append(m.set, v)
	}
	m.val[v] = x
}

// clear zeroes every mark set since the last clear.
func (m *varMarks) clear() {
	for _, v := range m.set {
		m.val[v] = 0
	}
	m.set = m.set[:0]
}

// leafMark tags a cut leaf during an MFFC count; any other mark is the
// number of references the count has released so far.
const leafMark = -1

// mffcSize is MFFCSize with caller-owned scratch.
func (g *AIG) mffcSize(m *varMarks, v int, leaves []int, refs []int) int {
	for _, l := range leaves {
		m.mark(l, leafMark)
	}
	n := g.mffcCount(m, v, refs)
	m.clear()
	return n
}

// mffcCount counts the AND nodes of u's cone that die with it: a fanin
// dies once every one of its references has been released.
func (g *AIG) mffcCount(m *varMarks, u int, refs []int) int {
	if m.val[u] == leafMark || !g.IsAnd(u) {
		return 0
	}
	n := 1
	for _, w := range [2]int{g.nodes[u].fan0.Var(), g.nodes[u].fan1.Var()} {
		if m.val[w] == leafMark || !g.IsAnd(w) {
			continue
		}
		m.mark(w, m.val[w]+1)
		if int(m.val[w]) >= refs[w] {
			n += g.mffcCount(m, w, refs)
		}
	}
	return n
}
