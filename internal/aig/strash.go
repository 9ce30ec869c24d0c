package aig

// strashTable is the structural-hashing index of AIG.And: an open-addressed
// table from the fanin pair key fan0<<32|fan1 to the AND node's literal,
// with a power-of-two slot count and linear probing. Key 0 marks an empty
// slot: a stored key's second fanin is never a constant (And folds those
// away), so no stored key is 0. Nodes are never removed, so there are no
// tombstones.
type strashTable struct {
	keys []uint64
	vals []Lit
	n    int // occupied slots
}

// strashMinSlots is the slot count of a table's first allocation.
const strashMinSlots = 64

// slotOf hashes a key to its home slot (Fibonacci hashing: bits 32 and up
// of the key times 2^64/phi, which mix every bit of the second fanin).
func (t *strashTable) slotOf(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> 32 & uint64(len(t.keys)-1))
}

// find returns the slot holding key, or the empty slot where it would be
// inserted. The table always has at least one empty slot.
func (t *strashTable) find(key uint64) int {
	if t.keys == nil {
		t.resize(strashMinSlots)
	}
	mask := len(t.keys) - 1
	for i := t.slotOf(key); ; i = (i + 1) & mask {
		if k := t.keys[i]; k == key || k == 0 {
			return i
		}
	}
}

// insert stores key at the empty slot find returned for it, growing the
// table past a load of one half.
func (t *strashTable) insert(slot int, key uint64, l Lit) {
	t.keys[slot], t.vals[slot] = key, l
	t.n++
	if 2*t.n > len(t.keys) {
		t.resize(2 * len(t.keys))
	}
}

// resize rehashes the table into the given power-of-two slot count.
func (t *strashTable) resize(slots int) {
	keys, vals := t.keys, t.vals
	t.keys, t.vals = make([]uint64, slots), make([]Lit, slots)
	mask := slots - 1
	for i, k := range keys {
		if k == 0 {
			continue
		}
		j := t.slotOf(k)
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, vals[i]
	}
}

// clone returns an independent copy.
func (t *strashTable) clone() strashTable {
	return strashTable{
		keys: append([]uint64(nil), t.keys...),
		vals: append([]Lit(nil), t.vals...),
		n:    t.n,
	}
}
