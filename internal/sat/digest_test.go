package sat

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestRun feeds one seeded incremental stream to a solver and hashes
// everything the search reveals: each AddClause result and, per Solve, the
// verdict, the conflicts spent and the full model on Sat.
type digestRun struct {
	s      *Solver
	rng    *rand.Rand
	h      hash.Hash
	counts [3]int // solves per Status
}

func newDigestRun(seed int64) *digestRun {
	return &digestRun{s: New(0), rng: rand.New(rand.NewSource(seed)), h: sha256.New()}
}

func (d *digestRun) add(lits ...Lit) {
	ok := d.s.AddClause(lits...)
	binary.Write(d.h, binary.LittleEndian, ok)
}

func (d *digestRun) solve(budget int64, assumptions ...Lit) Status {
	d.s.ConflictBudget = budget
	st := d.s.Solve(assumptions...)
	d.counts[st]++
	binary.Write(d.h, binary.LittleEndian, []int64{int64(st), d.s.conflicts})
	if st == Sat {
		model := make([]bool, d.s.NumVars())
		for v := range model {
			model[v] = d.s.Value(v)
		}
		binary.Write(d.h, binary.LittleEndian, model)
	}
	return st
}

func (d *digestRun) lit(n int) Lit { return L(d.rng.Intn(n), d.rng.Intn(2) == 0) }

// budget is unlimited two times in three, else a small conflict budget.
func (d *digestRun) budget() int64 {
	if d.rng.Intn(3) == 0 {
		return int64(d.rng.Intn(30))
	}
	return -1
}

// randomStream loads clauses of length minLen..maxLen over n variables in
// rounds, solving under random assumptions after each round, so later
// solves start from the learnt state of earlier ones.
func (d *digestRun) randomStream(n, perRound, minLen, maxLen int) {
	d.s.Grow(n)
	for round := 0; round < 6; round++ {
		for i := 0; i < perRound; i++ {
			lits := make([]Lit, minLen+d.rng.Intn(maxLen-minLen+1))
			for k := range lits {
				lits[k] = d.lit(n)
			}
			d.add(lits...)
		}
		for q := 0; q < 3; q++ {
			assumptions := make([]Lit, d.rng.Intn(5))
			for i := range assumptions {
				assumptions[i] = d.lit(n)
			}
			d.solve(d.budget(), assumptions...)
		}
	}
}

// miterStream Tseitin-encodes a random AND graph twice, the second copy
// with every gate rebuilt as (a&b) & !(!a&!b) and, on odd seeds, one gate's
// input inverted. Gate pairs are then queried in topological order the way
// SAT sweeping does: each pair's cones are encoded lazily just before its
// two-sided query, under a small conflict budget.
func (d *digestRun) miterStream(pis, gates int, mutate bool) {
	s := d.s
	s.Grow(pis)
	type node struct{ a, b int } // fanin literals over graph nodes (node<<1|neg)
	nodes := make([]node, gates)
	for g := range nodes {
		top := pis + g
		nodes[g] = node{d.rng.Intn(top)<<1 | d.rng.Intn(2), d.rng.Intn(top)<<1 | d.rng.Intn(2)}
	}
	mutant := -1
	if mutate {
		mutant = d.rng.Intn(gates)
	}
	// satA/satB map a graph node to its SAT variable in copy A/B (-1 = not
	// yet encoded); PIs are shared.
	satA := make([]int, pis+gates)
	satB := make([]int, pis+gates)
	for i := range satA {
		satA[i], satB[i] = -1, -1
		if i < pis {
			satA[i], satB[i] = i, i
		}
	}
	and := func(y, a, b Lit) {
		d.add(y.Not(), a)
		d.add(y.Not(), b)
		d.add(y, a.Not(), b.Not())
	}
	var encA, encB func(v int) int
	litOf := func(enc func(int) int, f int) Lit { return L(enc(f>>1), f&1 != 0) }
	encA = func(v int) int {
		if satA[v] < 0 {
			n := nodes[v-pis]
			a, b := litOf(encA, n.a), litOf(encA, n.b)
			satA[v] = s.AddVar()
			and(L(satA[v], false), a, b)
		}
		return satA[v]
	}
	encB = func(v int) int {
		if satB[v] < 0 {
			n := nodes[v-pis]
			a, b := litOf(encB, n.a), litOf(encB, n.b)
			if v-pis == mutant {
				a = a.Not()
			}
			p, q, y := L(s.AddVar(), false), L(s.AddVar(), false), s.AddVar()
			and(p, a, b)
			and(q, a.Not(), b.Not())
			and(L(y, false), p, q.Not())
			satB[v] = y
		}
		return satB[v]
	}
	for v := pis; v < pis+gates; v++ {
		x, y := L(encA(v), false), L(encB(v), false)
		budget := int64(20 + d.rng.Intn(200))
		if d.solve(budget, x, y.Not()) == Unsat {
			d.solve(budget, x.Not(), y)
		}
	}
}

// solveDigests runs every stream and returns "<stream> <sha256>" lines in a
// fixed order, plus the verdict totals over all streams.
func solveDigests() ([]string, [3]int) {
	var lines []string
	var total [3]int
	emit := func(name string, seed int64, run func(d *digestRun)) {
		d := newDigestRun(seed)
		run(d)
		lines = append(lines, fmt.Sprintf("%s %d %s", name, seed, hex.EncodeToString(d.h.Sum(nil))))
		for i, c := range d.counts {
			total[i] += c
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 80 + 20*int(seed)
		// Half binary, half ternary clauses, collapsing to Unsat within a
		// few rounds.
		emit("binary", seed, func(d *digestRun) { d.randomStream(n, n/3, 2, 3) })
		// Random 3-SAT climbing through its threshold: the long searches.
		emit("ternary", seed, func(d *digestRun) { d.randomStream(n, 3*n/4, 3, 3) })
		emit("long", seed, func(d *digestRun) { d.randomStream(n, 5*n/4, 3, 7) })
		emit("mixed", seed, func(d *digestRun) { d.randomStream(n, n, 2, 6) })
		emit("miter", seed, func(d *digestRun) { d.miterStream(8+int(seed), 100+40*int(seed), seed%2 == 1) })
	}
	return lines, total
}

// TestSolveGoldenDigest pins the search itself, not just its verdicts:
// propagation order, learnt clauses and restarts all show in the conflict
// counts and models hashed per solve. The digests were recorded from the
// pointer-based solver the flat clause store replaced and are never
// re-recorded: a mismatch means the search changed.
func TestSolveGoldenDigest(t *testing.T) {
	want := readDigestFile(t, filepath.Join("testdata", "solve_digest.txt"))
	got, total := solveDigests()
	if total[Sat] == 0 || total[Unsat] == 0 || total[Unknown] == 0 {
		t.Fatalf("verdict mix sat=%d unsat=%d unknown=%d leaves a path unpinned", total[Sat], total[Unsat], total[Unknown])
	}
	t.Logf("sat=%d unsat=%d unknown=%d", total[Sat], total[Unsat], total[Unknown])
	if len(got) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

func readDigestFile(t testing.TB, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
