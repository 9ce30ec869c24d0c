package aig

import (
	"math/bits"
	"slices"
)

// Cut is a k-feasible cut: a set of leaf variables that covers every path
// from a node to the primary inputs.
type Cut struct {
	Leaves []int // sorted variable indices
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
// candidates are leaf bitmasks in scratch reused across nodes, and only the
// cuts it keeps are decoded into leaves.
func (g *AIG) EnumerateCuts(k, maxCuts int) [][]Cut {
	cuts := make([][]Cut, len(g.nodes))
	chunk := min(max(len(g.nodes), 64), 4096)
	leafArena := arena[int]{size: chunk * k}
	cutArena := arena[Cut]{size: chunk * maxCuts}
	single := func(leaves ...int) []Cut {
		out := cutArena.alloc(1)
		out[0] = Cut{Leaves: leafArena.alloc(len(leaves))}
		copy(out[0].Leaves, leaves)
		return out
	}
	cuts[0] = single()
	for v := 1; v <= g.numPI; v++ {
		cuts[v] = single(v)
	}
	s := cutScratch{slot: make([]int32, len(g.nodes))}
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		s.merge(cuts[n.fan0.Var()], cuts[n.fan1.Var()], k)
		kept := s.order[:min(len(s.order), maxCuts-1)]
		out := cutArena.alloc(len(kept) + 1)
		for i, c := range kept {
			l := leafArena.alloc(int(c.size))[:0]
			for j, x := range s.set[c.at : int(c.at)+s.w] {
				for ; x != 0; x &= x - 1 {
					l = append(l, s.leaves[j*64+bits.TrailingZeros64(x)])
				}
			}
			slices.Sort(l)
			out[i] = Cut{Leaves: l}
		}
		l := leafArena.alloc(1)
		l[0] = v
		out[len(kept)] = Cut{Leaves: l} // trivial cut
		cuts[v] = out
	}
	return cuts
}

// cutScratch is EnumerateCuts' per-node working memory, reused across
// nodes. A node's distinct fanin leaves are numbered in the order they are
// met, and each cut is a mask of w words over those numbers, so a merge is
// an OR, its size a popcount and dominance a subset test; a kept cut's
// decoded leaves are sorted.
type cutScratch struct {
	slot   []int32    // per variable: 1 + its leaf number, 0 off the node
	leaves []int      // the node's distinct fanin leaves, by number
	masks  []uint64   // fanin cut masks, then the merge being tested
	set    []uint64   // candidate antichain, in insertion order
	order  []sizedCut // the candidates sorted by size
	w      int        // words per mask
}

// sizedCut is a candidate's leaf count and the offset of its mask in set.
type sizedCut struct{ size, at int32 }

// merge builds the antichain of k-feasible unions of a cut from c0 and one
// from c1, in the order the pairs are tried, and sorts it by size.
func (s *cutScratch) merge(c0, c1 []Cut, k int) {
	s.leaves = s.leaves[:0]
	for _, cs := range [2][]Cut{c0, c1} {
		for _, c := range cs {
			for _, l := range c.Leaves {
				if s.slot[l] == 0 {
					s.leaves = append(s.leaves, l)
					s.slot[l] = int32(len(s.leaves))
				}
			}
		}
	}
	w := len(s.leaves)/64 + 1
	n := (len(c0) + len(c1) + 1) * w
	s.masks = slices.Grow(s.masks[:0], n)[:n]
	clear(s.masks)
	m := s.masks
	for _, cs := range [2][]Cut{c0, c1} {
		for _, c := range cs {
			for _, l := range c.Leaves {
				b := s.slot[l] - 1
				m[b/64] |= 1 << (b % 64)
			}
			m = m[w:]
		}
	}
	for _, l := range s.leaves {
		s.slot[l] = 0
	}
	m0, m1 := s.masks[:len(c0)*w], s.masks[len(c0)*w:n-w]
	s.set, s.w = s.set[:0], w
	for a := 0; a < len(m0); a += w {
		for b := 0; b < len(m1); b += w {
			size := 0
			for x := range m {
				m[x] = m0[a+x] | m1[b+x]
				size += bits.OnesCount64(m[x])
			}
			if size <= k {
				s.insert(m)
			}
		}
	}
	s.order = s.order[:0]
	for at := 0; at < len(s.set); at += w {
		size := 0
		for _, x := range s.set[at : at+w] {
			size += bits.OnesCount64(x)
		}
		s.order = append(s.order, sizedCut{int32(size), int32(at)})
	}
	sortCutsBySize(s.order)
}

// insert adds mask m to the antichain unless a member is a subset of it,
// and drops the members it is a proper subset of. In an antichain no member
// lies below m while another lies above it, so a dominated m returns before
// anything was dropped.
func (s *cutScratch) insert(m []uint64) {
	w, kept := len(m), 0
	if w == 1 {
		for _, c := range s.set {
			if c&^m[0] == 0 {
				return
			}
			if m[0]&^c != 0 {
				s.set[kept] = c
				kept++
			}
		}
		s.set = append(s.set[:kept], m[0])
		return
	}
	for at := 0; at < len(s.set); at += w {
		c := s.set[at : at+w]
		below, above := true, true // c ⊆ m, m ⊆ c
		for x := range m {
			below = below && c[x]&^m[x] == 0
			above = above && m[x]&^c[x] == 0
		}
		if below {
			return
		}
		if !above {
			copy(s.set[kept:], c)
			kept += w
		}
	}
	s.set = append(s.set[:kept], m...)
}

// sortCutsBySize orders candidates by leaf count. The sort is not stable,
// and which equal-size cuts survive the maxCuts truncation depends on its
// exact permutation, so it must stay the pdqsort of sort.Slice:
// slices.SortFunc runs the same generated algorithm and comparisons without
// the reflection and closure allocations.
func sortCutsBySize(order []sizedCut) {
	slices.SortFunc(order, func(a, b sizedCut) int { return int(a.size - b.size) })
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
