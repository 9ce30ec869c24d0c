package aig

import (
	"math/bits"
	"slices"
)

// Cut is a k-feasible cut: a set of leaf variables that covers every path
// from a node to the primary inputs.
type Cut struct {
	Leaves []int // sorted variable indices
	// TT is the function of the cut's root over Leaves, leaf i as variable
	// i, masked to len(Leaves) variables (Truth6Mask); 0 for a cut of more
	// than 6 leaves.
	TT uint64
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
// cuts it keeps are decoded into leaves. A kept cut's function is its fanin
// cut pair's functions, expanded to its leaves, complemented as the fanin
// edges are, and ANDed (priority-cut mapping, Mishchenko et al., ICCAD'07).
func (g *AIG) EnumerateCuts(k, maxCuts int) [][]Cut {
	cuts := make([][]Cut, len(g.nodes))
	chunk := min(max(len(g.nodes), 64), 4096)
	leafArena := arena[int]{size: chunk * k}
	cutArena := arena[Cut]{size: chunk * maxCuts}
	trivial := func(v int) Cut {
		l := leafArena.alloc(1)
		l[0] = v
		return Cut{Leaves: l, TT: truth6Masks[0] & Truth6Mask(1)}
	}
	cuts[0] = cutArena.alloc(1) // the constant: no leaves, function 0
	for v := 1; v <= g.numPI; v++ {
		cuts[v] = cutArena.alloc(1)
		cuts[v][0] = trivial(v)
	}
	s := cutScratch{slot: make([]int32, len(g.nodes))}
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		c0, c1 := cuts[n.fan0.Var()], cuts[n.fan1.Var()]
		s.merge(c0, c1, k)
		kept := s.order[:min(len(s.order), maxCuts-1)]
		out := cutArena.alloc(len(kept) + 1)
		for i, c := range kept {
			at := int(c.i) * s.w
			l := leafArena.alloc(int(c.size))[:0]
			for j, x := range s.set[at : at+s.w] {
				for ; x != 0; x &= x - 1 {
					l = append(l, s.leaves[j*64+bits.TrailingZeros64(x)])
				}
			}
			slices.Sort(l)
			out[i] = Cut{Leaves: l}
			if len(l) <= 6 {
				p := s.pairs[c.i]
				t0 := expandTruth(c0[p.a], l)
				if n.fan0.IsCompl() {
					t0 = ^t0
				}
				t1 := expandTruth(c1[p.b], l)
				if n.fan1.IsCompl() {
					t1 = ^t1
				}
				out[i].TT = t0 & t1 & Truth6Mask(len(l))
			}
		}
		out[len(kept)] = trivial(v)
		cuts[v] = out
	}
	return cuts
}

// expandTruth returns the function of cut c over the sorted leaves l, a
// superset of c's leaves, as a 6-variable table: c's table is replicated
// over the variables it does not use, then each of its leaves, highest
// first, swaps from its position in c to its position in l with a variable
// the table does not depend on.
func expandTruth(c Cut, l []int) uint64 {
	t := c.TT * truthRepl[len(c.Leaves)]
	j := len(c.Leaves) - 1
	for p := len(l) - 1; j >= 0; p-- {
		if l[p] == c.Leaves[j] {
			if p != j {
				t = truthSwap(t, j, p)
			}
			j--
		}
	}
	return t
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
	pairs  []cutPair  // per antichain member, the fanin cuts it came from
	order  []sizedCut // the candidates sorted by size
	w      int        // words per mask
}

// cutPair indexes the fanin-0 and fanin-1 cuts whose union is a candidate.
type cutPair struct{ a, b int32 }

// sizedCut is a candidate's leaf count and its index in the antichain.
type sizedCut struct{ size, i int32 }

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
	s.set, s.pairs, s.w = s.set[:0], s.pairs[:0], w
	if w == 1 {
		for a, ma := range m0 {
			for b, mb := range m1 {
				if m[0] = ma | mb; bits.OnesCount64(m[0]) <= k {
					s.insert(m, cutPair{int32(a), int32(b)})
				}
			}
		}
	} else {
		for a, p := 0, (cutPair{}); a < len(m0); a, p.a = a+w, p.a+1 {
			p.b = 0
			for b := 0; b < len(m1); b, p.b = b+w, p.b+1 {
				size := 0
				for x := range m {
					m[x] = m0[a+x] | m1[b+x]
					size += bits.OnesCount64(m[x])
				}
				if size <= k {
					s.insert(m, p)
				}
			}
		}
	}
	s.order = s.order[:0]
	for at, i := 0, int32(0); at < len(s.set); at, i = at+w, i+1 {
		size := 0
		for _, x := range s.set[at : at+w] {
			size += bits.OnesCount64(x)
		}
		s.order = append(s.order, sizedCut{int32(size), i})
	}
	sortCutsBySize(s.order)
}

// insert adds mask m, the union of fanin cut pair p, to the antichain
// unless a member is a subset of it, and drops the members it is a proper
// subset of. In an antichain no member lies below m while another lies
// above it, so a dominated m returns before anything was dropped.
func (s *cutScratch) insert(m []uint64, p cutPair) {
	w, kept := len(m), 0
	if w == 1 {
		for i, c := range s.set {
			if c&^m[0] == 0 {
				return
			}
			if m[0]&^c != 0 {
				if kept != i {
					s.set[kept], s.pairs[kept] = c, s.pairs[i]
				}
				kept++
			}
		}
		s.set = append(s.set[:kept], m[0])
		s.pairs = append(s.pairs[:kept], p)
		return
	}
	for at, i := 0, 0; at < len(s.set); at, i = at+w, i+1 {
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
			copy(s.set[kept*w:], c)
			s.pairs[kept] = s.pairs[i]
			kept++
		}
	}
	s.set = append(s.set[:kept*w], m...)
	s.pairs = append(s.pairs[:kept], p)
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
