package sat

// varHeap is a binary max-heap over variable activities with lazy
// re-insertion: popped variables that turn out to be assigned or not to be
// decision variables are simply skipped, and unassignment pushes decision
// variables back. indices[v] < 0 means v is not currently in the heap.
type varHeap struct {
	data    []int
	indices []int
}

// up sifts the variable at i toward the root. It moves a hole rather than
// swapping: each level it passes costs one write, and the variable lands
// once at the end.
func (h *varHeap) up(s *Solver, i int) {
	v := h.data[i]
	act := s.activity[v]
	for i > 0 {
		parent := (i - 1) / 2
		if !(act > s.activity[h.data[parent]]) {
			break
		}
		h.data[i] = h.data[parent]
		h.indices[h.data[i]] = i
		i = parent
	}
	h.data[i] = v
	h.indices[v] = i
}

// down sifts the variable at i toward the leaves by the same hole moves,
// comparing the left child, then the right one, against the larger of the
// variable and the left child.
func (h *varHeap) down(s *Solver, i int) {
	n := len(h.data)
	v := h.data[i]
	act := s.activity[v]
	for {
		best, bestAct := i, act
		if l := 2*i + 1; l < n && s.activity[h.data[l]] > bestAct {
			best, bestAct = l, s.activity[h.data[l]]
		}
		if r := 2*i + 2; r < n && s.activity[h.data[r]] > bestAct {
			best = r
		}
		if best == i {
			break
		}
		h.data[i] = h.data[best]
		h.indices[h.data[i]] = i
		i = best
	}
	h.data[i] = v
	h.indices[v] = i
}

// push inserts v if absent.
func (h *varHeap) push(s *Solver, v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.up(s, len(h.data)-1)
}

// bump restores heap order after v's activity increased.
func (h *varHeap) bump(s *Solver, v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(s, h.indices[v])
	}
}

// popMax removes and returns the highest-activity variable.
func (h *varHeap) popMax(s *Solver) (int, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.indices[v] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.down(s, 0)
	}
	return v, true
}

// rebuild re-establishes heap order after a global activity rescale.
func (h *varHeap) rebuild(s *Solver) {
	for i := len(h.data)/2 - 1; i >= 0; i-- {
		h.down(s, i)
	}
}
