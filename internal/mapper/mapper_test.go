package mapper

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

var catalog = pdk.Catalog()

func buildML(t *testing.T, tempK float64) *MatchLibrary {
	t.Helper()
	lib, used := testlib.Build(catalog, testlib.Names(), tempK)
	ml, err := BuildMatchLibrary(lib, used, 6)
	if err != nil {
		t.Fatal(err)
	}
	return ml
}

func TestBuildMatchLibrary(t *testing.T) {
	ml := buildML(t, 300)
	if ml.Inv == nil || ml.Inv.Cell.Base != "INV" {
		t.Fatal("no inverter match")
	}
	// NAND2 function must be matchable.
	nand2 := pdk.FindCell(catalog, "NAND2x1")
	tt, _ := nand2.Truth("Y")
	matches := ml.MatchesFor(tt, 2)
	if len(matches) == 0 {
		t.Fatal("NAND2 function unmatched")
	}
	foundDirect := false
	for _, m := range matches {
		if m.Cell.Base == "NAND2" && !m.OutNeg {
			foundDirect = true
		}
		if m.Cell.Base == "AND2" && !m.OutNeg {
			t.Error("AND2 cannot directly realize NAND2")
		}
	}
	if !foundDirect {
		t.Error("no direct NAND2 match for the NAND2 function")
	}
}

func TestMatchBindingCorrectness(t *testing.T) {
	// For a non-symmetric function (AOI21: !(A&B | C)), the pin binding
	// must wire the right leaves. Verify by evaluating the cell truth table
	// under the binding for every cut-leaf assignment and permuted variant.
	ml := buildML(t, 300)
	aoi := pdk.FindCell(catalog, "AOI21x1")
	base, _ := aoi.Truth("Y")
	// Permute the cut function: f(c,a,b) = !(c&a | b) etc. Build variants
	// by swapping truth-table variables.
	variants := []uint64{base}
	v1 := base
	v1 = swapTT(v1, 0) // swap A,B
	variants = append(variants, v1)
	v2 := swapTT(swapTT(base, 1), 0)
	variants = append(variants, v2)
	for vi, tt := range variants {
		matches := ml.MatchesFor(tt&aig.Truth6Mask(3), 3)
		if len(matches) == 0 {
			t.Fatalf("variant %d unmatched", vi)
		}
		m := matches[0]
		cellTT, _ := m.Cell.Truth(m.Cell.Outputs[0])
		for leafAssign := 0; leafAssign < 8; leafAssign++ {
			// Cell input pin i reads leaf PinToLeaf[i].
			cellRow := 0
			for pin := range m.Cell.Inputs {
				if leafAssign&(1<<uint(m.PinToLeaf[pin])) != 0 {
					cellRow |= 1 << uint(pin)
				}
			}
			got := cellTT&(1<<uint(cellRow)) != 0
			if m.OutNeg {
				got = !got
			}
			want := tt&(1<<uint(leafAssign)) != 0
			if got != want {
				t.Fatalf("variant %d: binding wrong at assign %b: got %v want %v", vi, leafAssign, got, want)
			}
		}
	}
}

func swapTT(tt uint64, i int) uint64 {
	// adjacent-variable swap re-exported via aig would be internal; do it
	// manually for vars i,i+1 over 3 vars.
	var out uint64
	for row := 0; row < 8; row++ {
		bi := (row >> uint(i)) & 1
		bj := (row >> uint(i+1)) & 1
		swapped := row&^(1<<uint(i))&^(1<<uint(i+1)) | bi<<uint(i+1) | bj<<uint(i)
		if tt&(1<<uint(swapped)) != 0 {
			out |= 1 << uint(row)
		}
	}
	return out
}

func randomAIG(seed int64, nPI, nNodes, nPO int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New("rand")
	lits := make([]aig.Lit, 0, nPI+nNodes)
	for i := 0; i < nPI; i++ {
		lits = append(lits, g.AddPI(piName(i)))
	}
	for i := 0; i < nNodes; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPO; i++ {
		g.AddPO(lits[len(lits)-1-i].NotIf(rng.Intn(2) == 0), poName(i))
	}
	return g
}

func piName(i int) string { return "pi" + string(rune('a'+i)) }
func poName(i int) string { return "po" + string(rune('a'+i)) }

// verifyMapped checks the netlist realizes the AIG on 6*64 random vectors
// (exhaustive for <= 6 inputs).
func verifyMapped(t *testing.T, g *aig.AIG, nl *netlist.Netlist) {
	t.Helper()
	ng, err := netlist.Compile(nl)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pi := map[string]int{}
	for i := 0; i < g.NumPIs(); i++ {
		pi[g.PIName(i)] = i
	}
	po := map[string]int32{}
	for o, name := range ng.OutputNames {
		po[name] = ng.Outputs[o]
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		words := make([]uint64, g.NumPIs())
		for i := range words {
			words[i] = rng.Uint64()
			if round == 0 && g.NumPIs() <= 6 {
				words[i] = aig.Truth6Var(i) // exhaustive patterns
			}
		}
		in := make([]uint64, len(ng.Inputs))
		for i, name := range ng.InputNames {
			j, ok := pi[name]
			if !ok {
				t.Fatalf("netlist input %s is not an AIG input", name)
			}
			in[i] = words[j]
		}
		vals := g.SimWords(words)
		netVals, err := ng.SimWords(in)
		if err != nil {
			t.Fatalf("netlist sim: %v", err)
		}
		for i := 0; i < g.NumPOs(); i++ {
			want := aig.EvalLit(vals, g.PO(i))
			id, ok := po[g.POName(i)]
			if !ok {
				t.Fatalf("output %s undriven", g.POName(i))
			}
			if got := netVals[id]; got != want {
				t.Fatalf("round %d output %s: netlist %x != aig %x", round, g.POName(i), got, want)
			}
		}
	}
}

func TestMapFunctionalAllModes(t *testing.T) {
	ml := buildML(t, 300)
	for _, mode := range []CostMode{Baseline, PowerAreaDelay, PowerDelayArea} {
		for seed := int64(1); seed <= 10; seed++ {
			g := randomAIG(seed, 6, 70, 5)
			nl, err := Map(context.Background(), g, ml, Options{Mode: mode})
			if err != nil {
				t.Fatalf("mode %v seed %d: %v", mode, seed, err)
			}
			if nl.NumGates() == 0 {
				t.Fatalf("mode %v seed %d: empty netlist", mode, seed)
			}
			verifyMapped(t, g, nl)
		}
	}
}

func TestMapHandlesPIAndInvertedPOs(t *testing.T) {
	ml := buildML(t, 300)
	g := aig.New("edge")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(a, "pass")      // PO = PI
	g.AddPO(a.Not(), "inv") // PO = !PI
	g.AddPO(x, "and")
	g.AddPO(x.Not(), "nand")
	nl, err := Map(context.Background(), g, ml, Options{Mode: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	verifyMapped(t, g, nl)
}

func TestMapSharedDriverPOs(t *testing.T) {
	ml := buildML(t, 300)
	g := aig.New("shared")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.Or(a, b)
	g.AddPO(x, "o1")
	g.AddPO(x, "o2")
	g.AddPO(x.Not(), "o3")
	nl, err := Map(context.Background(), g, ml, Options{Mode: PowerDelayArea})
	if err != nil {
		t.Fatal(err)
	}
	verifyMapped(t, g, nl)
}

func TestModeChangesCostRanking(t *testing.T) {
	// The three priority lists must be able to disagree: construct
	// candidates where power and area rank differently.
	a := Cost{Area: 10, Delay: 5e-12, Power: 1e-15}
	b := Cost{Area: 5, Delay: 5e-12, Power: 2e-15}
	if Baseline.Better(a, b) {
		t.Error("baseline must prefer the smaller-area candidate")
	}
	if !PowerAreaDelay.Better(a, b) || !PowerDelayArea.Better(a, b) {
		t.Error("power-first modes must prefer the lower-power candidate")
	}
	// Tie on power within epsilon: area breaks it for p->a->d.
	c := Cost{Area: 4, Delay: 9e-12, Power: 1.001e-15}
	d := Cost{Area: 6, Delay: 1e-12, Power: 1.000e-15}
	if !PowerAreaDelay.Better(c, d) {
		t.Error("p->a->d should fall through to area on a power tie")
	}
	if PowerDelayArea.Better(c, d) {
		t.Error("p->d->a should fall through to delay on a power tie")
	}
}

func TestMapVerilogExport(t *testing.T) {
	ml := buildML(t, 300)
	g := randomAIG(4, 5, 30, 3)
	nl, err := Map(context.Background(), g, ml, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb stringsBuilder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	for _, frag := range []string{"module rand", "endmodule", "assign"} {
		if !contains(s, frag) {
			t.Errorf("verilog missing %q", frag)
		}
	}
}

type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRefinementPassesDoNotHurt(t *testing.T) {
	ml := buildML(t, 300)
	for seed := int64(1); seed <= 5; seed++ {
		g := randomAIG(seed, 6, 80, 5)
		one, err := Map(context.Background(), g, ml, Options{Mode: Baseline, Passes: 1})
		if err != nil {
			t.Fatal(err)
		}
		two, err := Map(context.Background(), g, ml, Options{Mode: Baseline, Passes: 2})
		if err != nil {
			t.Fatal(err)
		}
		verifyMapped(t, g, two)
		// Area-recovery refinement should not increase area noticeably.
		if two.Area() > one.Area()*1.1 {
			t.Errorf("seed %d: refinement grew area %v -> %v", seed, one.Area(), two.Area())
		}
	}
}

// composeUncached is the reference for MatchesFor: canonicalize the cut
// function with aig.CanonPP and bind each library match of that canonical
// form, with no cache in between.
func composeUncached(ml *MatchLibrary, tt uint64, n int) []Match {
	canon, cutPerm, cutNeg := aig.CanonPP(tt, n)
	var out []Match
	for _, m := range ml.byCanon[n][canon] {
		bound := *m
		bound.PinToLeaf = make([]int, n)
		for i := 0; i < n; i++ {
			bound.PinToLeaf[m.cellPerm[i]] = cutPerm[i]
		}
		bound.OutNeg = m.cellNeg != cutNeg
		out = append(out, bound)
	}
	return out
}

// memoTables returns every truth table over 1-4 inputs and 2000 seeded
// random 5- and 6-input tables, each with its input count.
func memoTables() (tts []uint64, ns []int) {
	for n := 1; n <= 4; n++ {
		for tt := uint64(0); tt < 1<<(1<<uint(n)); tt++ {
			tts, ns = append(tts, tt), append(ns, n)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := 5 + i%2
		tts, ns = append(tts, rng.Uint64()&aig.Truth6Mask(n)), append(ns, n)
	}
	return tts, ns
}

func sameMatches(got []*Match, want []Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, reference %d", len(got), len(want))
	}
	for i, m := range got {
		w := want[i]
		if m.Cell != w.Cell || m.OutNeg != w.OutNeg || !slices.Equal(m.PinToLeaf, w.PinToLeaf) {
			return fmt.Errorf("match %d: %s %v neg=%v, reference %s %v neg=%v",
				i, m.Cell.Name, m.PinToLeaf, m.OutNeg, w.Cell.Name, w.PinToLeaf, w.OutNeg)
		}
	}
	return nil
}

// TestMatchesForMemoMatchesCanonPP pins the cached lookup to an uncached
// composition, on a cold and then a warm cache.
func TestMatchesForMemoMatchesCanonPP(t *testing.T) {
	ml := buildML(t, 300)
	tts, ns := memoTables()
	matched := 0
	for pass := 0; pass < 2; pass++ {
		for i, tt := range tts {
			got := ml.MatchesFor(tt, ns[i])
			if err := sameMatches(got, composeUncached(ml, tt, ns[i])); err != nil {
				t.Fatalf("pass %d, %d-input table %#x: %v", pass, ns[i], tt, err)
			}
			if pass == 0 && len(got) > 0 {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no table matched a library cell")
	}
}

// TestMatchesForConcurrent shares one library between 8 goroutines, each
// walking the tables in its own order.
func TestMatchesForConcurrent(t *testing.T) {
	ml := buildML(t, 300)
	tts, ns := memoTables()
	want := make([][]Match, len(tts))
	for i, tt := range tts {
		want[i] = composeUncached(ml, tt, ns[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(tts)) {
				if err := sameMatches(ml.MatchesFor(tts[i], ns[i]), want[i]); err != nil {
					errs <- fmt.Errorf("worker %d, %d-input table %#x: %v", w, ns[i], tts[i], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
