package aig

import "sort"

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

// mergeCuts unions two sorted leaf sets, failing if the result exceeds k.
// The union is built in a stack buffer and copied to the heap only when the
// merge succeeds.
func mergeCuts(a, b Cut, k int) (Cut, bool) {
	var buf [6]int
	leaves := buf[:0]
	i, j := 0, 0
	for i < len(a.Leaves) || j < len(b.Leaves) {
		var v int
		switch {
		case i >= len(a.Leaves):
			v = b.Leaves[j]
			j++
		case j >= len(b.Leaves):
			v = a.Leaves[i]
			i++
		case a.Leaves[i] < b.Leaves[j]:
			v = a.Leaves[i]
			i++
		case a.Leaves[i] > b.Leaves[j]:
			v = b.Leaves[j]
			j++
		default:
			v = a.Leaves[i]
			i++
			j++
		}
		if len(leaves) == k {
			return Cut{}, false
		}
		leaves = append(leaves, v)
	}
	return newCut(append(make([]int, 0, len(leaves)), leaves...)), true
}

// EnumerateCuts computes up to maxCuts k-feasible cuts per variable using
// the standard bottom-up merge with dominance pruning. The trivial cut {v}
// is always included (last). Index by variable.
func (g *AIG) EnumerateCuts(k, maxCuts int) [][]Cut {
	cuts := make([][]Cut, len(g.nodes))
	cuts[0] = []Cut{newCut([]int{})}
	for v := 1; v <= g.numPI; v++ {
		cuts[v] = []Cut{newCut([]int{v})}
	}
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		c0 := cuts[n.fan0.Var()]
		c1 := cuts[n.fan1.Var()]
		var set []Cut
		for _, a := range c0 {
			for _, b := range c1 {
				m, ok := mergeCuts(a, b, k)
				if !ok {
					continue
				}
				if dominatedByAny(set, m) {
					continue
				}
				set = removeDominated(set, m)
				set = append(set, m)
			}
		}
		sort.Slice(set, func(i, j int) bool { return len(set[i].Leaves) < len(set[j].Leaves) })
		if len(set) > maxCuts-1 {
			set = set[:maxCuts-1]
		}
		set = append(set, newCut([]int{v})) // trivial cut
		cuts[v] = set
	}
	return cuts
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
	leafSet := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		leafSet[l] = true
	}
	local := make(map[int]int)
	var count func(u int) int
	count = func(u int) int {
		if leafSet[u] || !g.IsAnd(u) {
			return 0
		}
		n := 1
		for _, f := range []Lit{g.nodes[u].fan0, g.nodes[u].fan1} {
			w := f.Var()
			local[w]++
			if !leafSet[w] && g.IsAnd(w) && local[w] >= refs[w] {
				n += count(w)
			}
		}
		return n
	}
	return count(v)
}
