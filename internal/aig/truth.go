package aig

// Truth-table machinery for cut functions of up to 6 inputs, packed into a
// single uint64, plus NPN-style canonicalization and irredundant
// sum-of-products (Minato-Morreale ISOP) computation.

// truth6Masks[i] is the truth table of input variable i over 6 variables.
var truth6Masks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Truth6Var returns the truth table of variable i (< 6).
func Truth6Var(i int) uint64 { return truth6Masks[i] }

// Truth6Mask returns the mask of meaningful bits for an n-variable table.
func Truth6Mask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(n))) - 1
}

// truth6Cofactors returns the negative and positive cofactors of t with
// respect to variable i, each replicated so the result is independent of
// variable i.
func truth6Cofactors(t uint64, i int) (lo, hi uint64) {
	m := truth6Masks[i]
	shift := uint(1) << uint(i)
	lo = t &^ m
	lo |= lo << shift
	hi = t & m
	hi |= hi >> shift
	return lo, hi
}

// TruthSupport returns a bitmask of the variables (0..n-1) the table
// actually depends on.
func TruthSupport(t uint64, n int) uint32 {
	var s uint32
	for i := 0; i < n; i++ {
		lo, hi := truth6Cofactors(t, i)
		if lo&Truth6Mask(n) != hi&Truth6Mask(n) {
			s |= 1 << uint(i)
		}
	}
	return s
}

// truthSwap swaps variables i < j in the table: rows where they differ
// trade places.
func truthSwap(t uint64, i, j int) uint64 {
	mi, mj := truth6Masks[i], truth6Masks[j]
	s := uint(1)<<j - uint(1)<<i
	return t&^(mi^mj) | t&mi&^mj<<s | t&mj&^mi>>s
}

// truthSwapAdjacent swaps variables i and i+1 in the table.
func truthSwapAdjacent(t uint64, i int) uint64 { return truthSwap(t, i, i+1) }

// truthRepl[n] times an n-variable table (Truth6Mask-ed) replicates it over
// the variables above n, making it a 6-variable table of the same function.
var truthRepl = [7]uint64{
	^uint64(0),
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
	1,
}

// truthFlip complements variable i in the table.
func truthFlip(t uint64, i int) uint64 {
	m := truth6Masks[i]
	shift := uint(1) << uint(i)
	return t&m>>shift | t&^m<<shift
}

// CanonPP computes a permutation-canonical form of the n-variable table
// (P-canonicalization with output phase): the minimum table value over all
// input permutations and output complementation. It returns the canonical
// table, the permutation applied (perm[newPos] = oldPos), and whether the
// output was complemented. Exhaustive for n <= 6 cells via greedy-repeat;
// used to index the technology-mapping match tables.
func CanonPP(t uint64, n int) (canon uint64, perm []int, outNeg bool) {
	mask := Truth6Mask(n)
	t &= mask
	best := t
	bestPerm := identityPerm(n)
	bestNeg := false
	// Try both output phases; for each, bubble-sort style enumeration of
	// permutations via adjacent swaps (full enumeration up to 6! = 720).
	for phase := 0; phase < 2; phase++ {
		cur := t
		if phase == 1 {
			cur = ^t & mask
		}
		perm := identityPerm(n)
		var enumerate func(k int, tt uint64, p []int)
		enumerate = func(k int, tt uint64, p []int) {
			if k == n {
				if tt < best {
					best = tt
					bestPerm = append([]int(nil), p...)
					bestNeg = phase == 1
				}
				return
			}
			enumerate(k+1, tt, p)
			for i := k + 1; i < n; i++ {
				// Swap positions k and i via adjacent swaps.
				tt2, p2 := tt, append([]int(nil), p...)
				for j := i - 1; j >= k; j-- {
					tt2 = truthSwapAdjacent(tt2, j)
					p2[j], p2[j+1] = p2[j+1], p2[j]
				}
				enumerate(k+1, tt2, p2)
			}
		}
		enumerate(0, cur, perm)
	}
	return best, bestPerm, bestNeg
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Cube is a product term over cut variables: a bit set in Pos (Neg) means
// the variable appears as a positive (negative) literal.
type Cube struct {
	Pos, Neg uint32
}

// ISOP computes an irredundant sum-of-products cover of the incompletely
// specified function [onset, onset|dcset] over n variables using the
// Minato-Morreale procedure. The returned cubes cover every onset minterm,
// stay inside onset|dcset, and are irredundant by construction.
func ISOP(onset, upper uint64, n int) []Cube {
	onset &= Truth6Mask(n)
	upper &= Truth6Mask(n)
	cubes, _ := isopRec(onset, upper, n)
	return cubes
}

// isopRec returns the cover and the function it realizes.
func isopRec(lo, up uint64, n int) ([]Cube, uint64) {
	if lo == 0 {
		return nil, 0
	}
	if up == Truth6Mask(n) {
		return []Cube{{}}, Truth6Mask(n)
	}
	// Pick the top-most variable in the combined support.
	v := -1
	for i := n - 1; i >= 0; i-- {
		l0, l1 := truth6Cofactors(lo, i)
		u0, u1 := truth6Cofactors(up, i)
		if l0 != l1 || u0 != u1 {
			v = i
			break
		}
	}
	if v < 0 {
		// Function is constant over the remaining space.
		return []Cube{{}}, Truth6Mask(n)
	}
	l0, l1 := truth6Cofactors(lo, v)
	u0, u1 := truth6Cofactors(up, v)

	// Cubes that must contain !v: needed where the function is on with v=0
	// but cannot be covered by a v-independent cube.
	c0, f0 := isopRec(l0&^u1, u0, n)
	c1, f1 := isopRec(l1&^u0, u1, n)
	// Remaining onset coverable without v.
	rem := (l0 &^ f0) | (l1 &^ f1)
	c2, f2 := isopRec(rem, u0&u1, n)

	mv := truth6Masks[v]
	var out []Cube
	var fun uint64
	for _, c := range c0 {
		c.Neg |= 1 << uint(v)
		out = append(out, c)
	}
	fun |= f0 &^ mv
	for _, c := range c1 {
		c.Pos |= 1 << uint(v)
		out = append(out, c)
	}
	fun |= f1 & mv
	out = append(out, c2...)
	fun |= f2
	return out, fun
}

// CubeTruth returns the truth table of a cube over n variables.
func CubeTruth(c Cube, n int) uint64 {
	t := Truth6Mask(n)
	for i := 0; i < n; i++ {
		if c.Pos&(1<<uint(i)) != 0 {
			t &= truth6Masks[i]
		}
		if c.Neg&(1<<uint(i)) != 0 {
			t &= ^truth6Masks[i]
		}
	}
	return t & Truth6Mask(n)
}

// CoverTruth returns the truth table realized by a cube cover.
func CoverTruth(cubes []Cube, n int) uint64 {
	var t uint64
	for _, c := range cubes {
		t |= CubeTruth(c, n)
	}
	return t & Truth6Mask(n)
}

// BuildFromCubes synthesizes the cover into the AIG over the given leaf
// literals, producing OR-of-ANDs with balanced trees.
func (g *AIG) BuildFromCubes(cubes []Cube, leaves []Lit) Lit {
	if len(cubes) == 0 {
		return False
	}
	terms := make([]Lit, 0, len(cubes))
	for _, c := range cubes {
		terms = append(terms, g.cubeAnd(c, leaves))
	}
	return g.balancedTree(terms, false)
}

// balancedTree combines literals with AND (and=true) or OR into a balanced
// binary tree, pairing neighbours level by level. It reduces in place, so
// it overwrites lits.
func (g *AIG) balancedTree(lits []Lit, and bool) Lit {
	if len(lits) == 0 {
		if and {
			return True
		}
		return False
	}
	for len(lits) > 1 {
		n := 0
		for i := 0; i+1 < len(lits); i += 2 {
			if and {
				lits[n] = g.And(lits[i], lits[i+1])
			} else {
				lits[n] = g.Or(lits[i], lits[i+1])
			}
			n++
		}
		if len(lits)%2 == 1 {
			lits[n] = lits[len(lits)-1]
			n++
		}
		lits = lits[:n]
	}
	return lits[0]
}
