package charlib

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/liberty"
	"repro/internal/pdk"
)

var catalog = pdk.Catalog()

func cellByName(t *testing.T, name string) *pdk.Cell {
	t.Helper()
	c := pdk.FindCell(catalog, name)
	if c == nil {
		t.Fatalf("cell %s not in catalog", name)
	}
	return c
}

func TestSensitizingVectorNAND2(t *testing.T) {
	cell := cellByName(t, "NAND2x1")
	vec, o0, o1, ok := sensitizingVector(cell, "A", "Y")
	if !ok {
		t.Fatal("NAND2 input A not sensitizable")
	}
	// B must be 1 for A to control the output; with A=0 out=1, A=1 out=0.
	if vec&(1<<1) == 0 {
		t.Errorf("sensitizing vector %b should set B=1", vec)
	}
	if !o0 || o1 {
		t.Errorf("NAND2: o0=%v o1=%v, want true/false", o0, o1)
	}
}

func TestSenseClassification(t *testing.T) {
	cases := map[[2]string]string{
		{"AND2x1", "A"}:  liberty.SensePositive,
		{"NAND2x1", "A"}: liberty.SenseNegative,
		{"XOR2x1", "A"}:  liberty.SenseNonUnate,
		{"MUX2x1", "S"}:  liberty.SenseNonUnate,
		{"AOI21x1", "C"}: liberty.SenseNegative,
	}
	for key, want := range cases {
		cell := cellByName(t, key[0])
		if got := senseOf(cell, key[1], "Y"); got != want {
			t.Errorf("%s pin %s: sense %s, want %s", key[0], key[1], got, want)
		}
	}
}

func TestFunctionString(t *testing.T) {
	inv := cellByName(t, "INVx1")
	if s := functionString(inv, "Y"); s != "(!A)" {
		t.Errorf("INV function = %q", s)
	}
	and := cellByName(t, "AND2x1")
	if s := functionString(and, "Y"); s != "(A*B)" {
		t.Errorf("AND2 function = %q", s)
	}
}

func TestCharacterizeInverterRoom(t *testing.T) {
	lc := mustChar(t, "INVx1", 300)
	y := lc.FindPin("Y")
	if y == nil || len(y.Timings) != 1 {
		t.Fatalf("INV output arcs: %+v", y)
	}
	tm := y.Timings[0]
	if tm.Sense != liberty.SenseNegative {
		t.Errorf("INV sense = %s", tm.Sense)
	}
	// Delay must increase with load at fixed slew and be positive.
	for i := range tm.CellRise.Index1 {
		prev := -1.0
		for j := range tm.CellRise.Index2 {
			v := tm.CellRise.Values[i][j]
			if v <= 0 {
				t.Errorf("cell_rise[%d][%d] = %v, want > 0", i, j, v)
			}
			if v < prev {
				t.Errorf("cell_rise not monotone in load at slew %d", i)
			}
			prev = v
		}
	}
	// Output transition increases with load.
	tr := tm.RiseTrans
	for i := range tr.Index1 {
		if tr.Values[i][len(tr.Index2)-1] <= tr.Values[i][0] {
			t.Errorf("rise_transition not increasing with load at slew row %d", i)
		}
	}
	// Plausible magnitudes: ps-scale delays.
	mid := tm.CellRise.Values[1][1]
	if mid < 0.2e-12 || mid > 200e-12 {
		t.Errorf("mid-grid INV delay %v s implausible", mid)
	}
	if lc.LeakagePower <= 0 {
		t.Errorf("leakage = %v", lc.LeakagePower)
	}
	pw := y.Powers[0]
	if pw.RisePower.Values[1][1] <= 0 || pw.FallPower.Values[1][1] <= 0 {
		t.Errorf("internal energies must be positive: %v %v",
			pw.RisePower.Values[1][1], pw.FallPower.Values[1][1])
	}
	a := lc.FindPin("A")
	if a == nil || a.Cap <= 0 {
		t.Errorf("input pin cap: %+v", a)
	}
}

func TestCryoVsRoomTrends(t *testing.T) {
	room := mustChar(t, "INVx2", 300)
	cryo := mustChar(t, "INVx2", 10)
	// Paper Fig 2(c): leakage drops by orders of magnitude.
	if r := room.LeakagePower / cryo.LeakagePower; r < 50 {
		t.Errorf("leakage ratio 300K/10K = %v, want >= 50", r)
	}
	// Paper Fig 2(a): delay marginally impacted.
	dr := room.FindPin("Y").Timings[0].CellRise.Values[1][1]
	dc := cryo.FindPin("Y").Timings[0].CellRise.Values[1][1]
	if ratio := dc / dr; ratio < 0.5 || ratio > 1.6 {
		t.Errorf("delay ratio 10K/300K = %v, want near 1", ratio)
	}
	// Paper Fig 2(b): switching (internal) energy slightly lower at 10 K.
	er := room.FindPin("Y").Powers[0].RisePower.Values[1][1]
	ec := cryo.FindPin("Y").Powers[0].RisePower.Values[1][1]
	if ec > er*1.15 {
		t.Errorf("10K rise energy %v should not exceed 300K %v by >15%%", ec, er)
	}
}

func TestCharacterizeNAND2BothArcs(t *testing.T) {
	lc := mustChar(t, "NAND2x1", 300)
	y := lc.FindPin("Y")
	if len(y.Timings) != 2 {
		t.Fatalf("NAND2 has %d arcs, want 2", len(y.Timings))
	}
	related := map[string]bool{}
	for _, tm := range y.Timings {
		related[tm.RelatedPin] = true
		if tm.Sense != liberty.SenseNegative {
			t.Errorf("NAND2 arc %s sense %s", tm.RelatedPin, tm.Sense)
		}
	}
	if !related["A"] || !related["B"] {
		t.Errorf("arcs found: %v", related)
	}
}

func TestCharacterizeXORNonUnate(t *testing.T) {
	lc := mustChar(t, "XOR2x1", 300)
	y := lc.FindPin("Y")
	for _, tm := range y.Timings {
		if tm.Sense != liberty.SenseNonUnate {
			t.Errorf("XOR2 arc %s sense = %s", tm.RelatedPin, tm.Sense)
		}
		if tm.CellRise.Values[1][1] <= 0 || tm.CellFall.Values[1][1] <= 0 {
			t.Errorf("XOR2 arc %s has non-positive delay", tm.RelatedPin)
		}
	}
}

func TestCharacterizeDFF(t *testing.T) {
	lc := mustChar(t, "DFFx1", 300)
	if !lc.Sequential || lc.ClockPin != "CLK" {
		t.Fatalf("DFF metadata: %+v", lc)
	}
	q := lc.FindPin("Q")
	if q == nil || len(q.Timings) != 1 {
		t.Fatalf("DFF Q arcs: %+v", q)
	}
	tm := q.Timings[0]
	if tm.Type != "rising_edge" || tm.RelatedPin != "CLK" {
		t.Errorf("DFF arc: type=%s related=%s", tm.Type, tm.RelatedPin)
	}
	if tm.CellRise.Values[1][1] <= 0 || tm.CellFall.Values[1][1] <= 0 {
		t.Errorf("DFF clk->q delays: %v %v", tm.CellRise.Values[1][1], tm.CellFall.Values[1][1])
	}
}

func TestCharacterizeLibrarySubsetAndCache(t *testing.T) {
	subset := []*pdk.Cell{
		pdk.FindCell(catalog, "INVx1"),
		pdk.FindCell(catalog, "NAND2x1"),
		pdk.FindCell(catalog, "NOR2x1"),
	}
	cfg := QuickConfig(300)
	dir := t.TempDir()
	path := filepath.Join(dir, "subset.lib")
	lib, err := CharacterizeLibraryCached(context.Background(), path, "subset300", subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 3 {
		t.Fatalf("library has %d cells", len(lib.Cells))
	}
	if err := lib.Validate(); err != nil {
		t.Errorf("characterized library invalid: %v", err)
	}
	info1, err := os.Stat(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	// Second call must hit the cache (file unchanged).
	lib2, err := CharacterizeLibraryCached(context.Background(), path, "subset300", subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info2, _ := os.Stat(path)
	if !info2.ModTime().Equal(info1.ModTime()) {
		t.Error("cache was regenerated on second call")
	}
	if len(lib2.Cells) != 3 {
		t.Errorf("cached library has %d cells", len(lib2.Cells))
	}
	// Parsed-back tables agree with fresh ones at a mid point.
	d1 := lib.FindCell("INVx1").Timing("Y", "A").CellRise.Lookup(20e-12, 1.6e-15)
	d2 := lib2.FindCell("INVx1").Timing("Y", "A").CellRise.Lookup(20e-12, 1.6e-15)
	if math.Abs(d1-d2)/d1 > 1e-3 {
		t.Errorf("cache round trip delay %v vs %v", d2, d1)
	}
}

func mustChar(t *testing.T, name string, temp float64) *liberty.Cell {
	t.Helper()
	cell := cellByName(t, name)
	lc, err := CharacterizeCell(context.Background(), cell, QuickConfig(temp))
	if err != nil {
		t.Fatalf("characterize %s at %gK: %v", name, temp, err)
	}
	return lc
}

func TestSequentialLeakageNotMetastable(t *testing.T) {
	// Bistable feedback loops must not be characterized at their metastable
	// (mid-rail, high short-circuit-current) operating point.
	ch := &charer{cfg: QuickConfig(300)}
	for _, name := range []string{"DFFx1", "DLATCHx1", "SDFFx1"} {
		cell := cellByName(t, name)
		p, err := ch.leakage(cell)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p > 1e-6 {
			t.Errorf("%s leakage %.3g W: metastable operating point", name, p)
		}
		if p <= 0 {
			t.Errorf("%s leakage %.3g W: non-positive", name, p)
		}
	}
}
