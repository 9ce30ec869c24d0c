package liberty

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func sampleTable() *Table {
	t := NewTable([]float64{10e-12, 20e-12, 40e-12}, []float64{1e-15, 2e-15})
	for i := range t.Index1 {
		for j := range t.Index2 {
			// delay = 1ps + slew/10 + load * 1ps/fF
			t.Values[i][j] = 1e-12 + t.Index1[i]/10 + t.Index2[j]*1e3
		}
	}
	return t
}

func sampleLibrary() *Library {
	tbl := sampleTable()
	pw := NewTable(tbl.Index1, tbl.Index2)
	for i := range pw.Values {
		for j := range pw.Values[i] {
			pw.Values[i][j] = 1e-16 * float64(i+j+1)
		}
	}
	return &Library{
		Name:  "cryo10k",
		TempK: 10,
		Vdd:   0.7,
		Cells: []*Cell{
			{
				Name:         "INVx1",
				Area:         6,
				LeakagePower: 3.2e-12,
				Pins: []*Pin{
					{Name: "A", Direction: "input", Cap: 0.45e-15},
					{
						Name: "Y", Direction: "output", Function: "(!A)",
						Timings: []*Timing{{
							RelatedPin: "A", Sense: SenseNegative,
							CellRise: tbl, CellFall: tbl, RiseTrans: tbl, FallTrans: tbl,
						}},
						Powers: []*InternalPower{{RelatedPin: "A", RisePower: pw, FallPower: pw}},
					},
				},
			},
			{
				Name: "DFFx1", Area: 20, LeakagePower: 9e-12,
				Sequential: true, ClockPin: "CLK",
				Pins: []*Pin{
					{Name: "D", Direction: "input", Cap: 0.5e-15},
					{Name: "CLK", Direction: "input", Cap: 0.6e-15},
					{
						Name: "Q", Direction: "output",
						Timings: []*Timing{{
							RelatedPin: "CLK", Sense: SenseNonUnate, Type: "rising_edge",
							CellRise: tbl, CellFall: tbl, RiseTrans: tbl, FallTrans: tbl,
						}},
					},
				},
			},
		},
	}
}

func TestLookupExactGridPoints(t *testing.T) {
	tbl := sampleTable()
	for i, s := range tbl.Index1 {
		for j, l := range tbl.Index2 {
			if got := tbl.Lookup(s, l); math.Abs(got-tbl.Values[i][j]) > 1e-18 {
				t.Errorf("Lookup(%g,%g) = %g, want %g", s, l, got, tbl.Values[i][j])
			}
		}
	}
}

func TestLookupInterpolation(t *testing.T) {
	tbl := sampleTable()
	// The sample table is affine in both axes, so interpolation must be
	// exact everywhere, including extrapolation.
	f := func(sRaw, lRaw uint8) bool {
		s := 5e-12 + float64(sRaw)/255*50e-12
		l := 0.5e-15 + float64(lRaw)/255*3e-15
		want := 1e-12 + s/10 + l*1e3
		return math.Abs(tbl.Lookup(s, l)-want) < 1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLookupSinglePointAxes(t *testing.T) {
	tbl := NewTable([]float64{1e-12}, []float64{1e-15})
	tbl.Values[0][0] = 42e-12
	if got := tbl.Lookup(9e-12, 9e-15); got != 42e-12 {
		t.Errorf("degenerate table lookup = %v", got)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse back: %v\n---\n%s", err, buf.String()[:min(2000, buf.Len())])
	}
	if got.Name != lib.Name || got.TempK != lib.TempK || got.Vdd != lib.Vdd {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(got.Cells))
	}
	inv := got.FindCell("INVx1")
	if inv == nil {
		t.Fatal("INVx1 missing after round trip")
	}
	if math.Abs(inv.LeakagePower-3.2e-12)/3.2e-12 > 1e-5 {
		t.Errorf("leakage %v, want 3.2e-12", inv.LeakagePower)
	}
	a := inv.FindPin("A")
	if a == nil || math.Abs(a.Cap-0.45e-15)/0.45e-15 > 1e-5 {
		t.Errorf("pin A cap: %+v", a)
	}
	tm := inv.Timing("Y", "A")
	if tm == nil {
		t.Fatal("timing arc Y<-A missing")
	}
	if tm.Sense != SenseNegative {
		t.Errorf("sense = %q", tm.Sense)
	}
	// Table round trip within unit-quantization error.
	orig := sampleTable()
	for _, s := range []float64{10e-12, 25e-12, 40e-12} {
		for _, l := range []float64{1e-15, 1.7e-15} {
			w, g := orig.Lookup(s, l), tm.CellRise.Lookup(s, l)
			if math.Abs(w-g)/w > 1e-4 {
				t.Errorf("table(%g,%g): %g vs %g", s, l, w, g)
			}
		}
	}
	pw := inv.Power("Y", "A")
	if pw == nil || pw.RisePower == nil {
		t.Fatal("internal power missing")
	}
	if v := pw.RisePower.Values[0][0]; math.Abs(v-1e-16)/1e-16 > 1e-4 {
		t.Errorf("power value %v, want 1e-16", v)
	}
	dff := got.FindCell("DFFx1")
	if dff == nil || !dff.Sequential || dff.ClockPin != "CLK" {
		t.Errorf("DFF sequential info lost: %+v", dff)
	}
	if tq := dff.Timing("Q", "CLK"); tq == nil || tq.Type != "rising_edge" {
		t.Errorf("DFF CLK->Q arc: %+v", tq)
	}
}

func TestValidate(t *testing.T) {
	lib := sampleLibrary()
	if err := lib.Validate(); err != nil {
		t.Errorf("valid library rejected: %v", err)
	}
	empty := &Library{Name: "x"}
	if err := empty.Validate(); err == nil {
		t.Error("empty library accepted")
	}
	bad := sampleLibrary()
	bad.Cells[0].Pins[1].Timings[0].RelatedPin = "NOPE"
	if err := bad.Validate(); err == nil {
		t.Error("dangling related_pin accepted")
	}
	neg := sampleLibrary()
	neg.Cells[0].Pins[1].Timings[0].CellRise.Values[0][0] = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"",
		"cell (X) { }",
		"library (a) { cell (b) { pin (Y) { timing () { cell_rise (t) { index_1 (\"1\"); index_2 (\"1\"); values (\"1, 2\"); } } } } }",
		// A value that consumes nothing used to spin the attribute loops.
		"library (x) { cell (INV) { ar(Aea : 1; pin (A) { direction : input; } } }",
		"library (;",
		"library (x) { a : b\"c; }",
	} {
		if _, err := Parse(bytes.NewReader([]byte(src))); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestHelpers(t *testing.T) {
	lib := sampleLibrary()
	inv := lib.FindCell("INVx1")
	if len(inv.Inputs()) != 1 || len(inv.Outputs()) != 1 {
		t.Error("Inputs/Outputs classification wrong")
	}
	if lib.FindCell("NOPE") != nil || inv.FindPin("NOPE") != nil {
		t.Error("Find* should return nil for unknown names")
	}
	if inv.Timing("Y", "NOPE") != nil || inv.Power("NOPE", "A") != nil {
		t.Error("Timing/Power should return nil when missing")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestQuickLookupWithinTableRange(t *testing.T) {
	// For a table with monotone values, interpolated lookups inside the
	// grid must stay within the table's min/max.
	tbl := sampleTable()
	lo, hi := tbl.Values[0][0], tbl.Values[len(tbl.Index1)-1][len(tbl.Index2)-1]
	f := func(sRaw, lRaw uint8) bool {
		s := tbl.Index1[0] + float64(sRaw)/255*(tbl.Index1[len(tbl.Index1)-1]-tbl.Index1[0])
		l := tbl.Index2[0] + float64(lRaw)/255*(tbl.Index2[len(tbl.Index2)-1]-tbl.Index2[0])
		v := tbl.Lookup(s, l)
		return v >= lo-1e-18 && v <= hi+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriterDeterministic(t *testing.T) {
	lib := sampleLibrary()
	var a, b bytes.Buffer
	if err := lib.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := lib.Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("liberty writer is not deterministic")
	}
}
