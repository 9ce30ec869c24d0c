package aig

import (
	"bytes"
	"strings"
	"testing"
)

func TestAIGERRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomAIG(seed, 6, 50, 4)
		g.Name = "roundtrip"
		var buf bytes.Buffer
		if err := g.WriteAIGER(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAIGER(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, buf.String()[:200])
		}
		if back.NumPIs() != g.NumPIs() || back.NumPOs() != g.NumPOs() {
			t.Fatalf("seed %d: interface mismatch", seed)
		}
		if back.Name != "roundtrip" {
			t.Errorf("name lost: %q", back.Name)
		}
		eq, proven := Equivalent(g, back, 50000)
		if !proven || !eq {
			t.Fatalf("seed %d: AIGER round trip not equivalent", seed)
		}
		// Names preserved.
		for i := 0; i < g.NumPIs(); i++ {
			if back.PIName(i) != g.PIName(i) {
				t.Errorf("PI %d name %q != %q", i, back.PIName(i), g.PIName(i))
			}
		}
		for i := 0; i < g.NumPOs(); i++ {
			if back.POName(i) != g.POName(i) {
				t.Errorf("PO %d name %q != %q", i, back.POName(i), g.POName(i))
			}
		}
	}
}

func TestAIGERConstantsAndComplements(t *testing.T) {
	g := New("edge")
	a := g.AddPI("a")
	g.AddPO(False, "zero")
	g.AddPO(True, "one")
	g.AddPO(a.Not(), "na")
	var buf bytes.Buffer
	if err := g.WriteAIGER(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAIGER(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := back.Eval([]bool{true})
	if out[0] != false || out[1] != true || out[2] != false {
		t.Errorf("edge outputs: %v", out)
	}
}

func TestAIGERRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"aig 1 1 0 1 0\n2\n2\n",               // binary header keyword
		"aag 1 1 1 1 0\n2\n0 0\n2\n",          // latches
		"aag 2 1 0 1 1\n2\n6\n4 2 3\nextra",   // output literal out of range
		"aag 2 1 0 1 1\n2\n2\n5 2 2\n",        // odd AND lhs
		"aag 2 1 0 1 1\n2\n2\n4 6 2\n",        // rhs out of range
		"aag 7 2 0 1 1\n2\n4\n0\n20 0 00",     // AND lhs beyond 2M
		"aag 3 2 0 1 1\n2\n4\n6\n4 2 2\n",     // AND lhs redefines an input
		"aag 4 1 0 1 2\n2\n4\n4 2 3\n4 3 2\n", // AND lhs defined twice
		"aag 3 1 0 -1 1\n2\n4 2 3\n",          // negative count
		"aag 3 1 0 1 1\n2\n-4\n4 2 3\n",       // negative output literal
	}
	for _, src := range cases {
		if _, err := ReadAIGER(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestAIGERBinaryRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomAIG(seed, 6, 50, 4)
		g.Name = "bin"
		var buf bytes.Buffer
		if err := g.WriteAIGERBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAIGERBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eq, proven := Equivalent(g, back, 50000)
		if !proven || !eq {
			t.Fatalf("seed %d: binary AIGER round trip not equivalent", seed)
		}
		if back.Name != "bin" || back.PIName(0) != g.PIName(0) || back.POName(0) != g.POName(0) {
			t.Error("binary AIGER lost symbols")
		}
	}
}

func TestAIGERBinarySmallerThanASCII(t *testing.T) {
	g := randomAIG(2, 8, 400, 8)
	var ascii, bin bytes.Buffer
	if err := g.WriteAIGER(&ascii); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAIGERBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= ascii.Len() {
		t.Errorf("binary (%d B) not smaller than ASCII (%d B)", bin.Len(), ascii.Len())
	}
}

func TestAIGERBinaryRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"",
		"aig 3 1 0 1 1\n2\n",         // truncated deltas
		"aig 9 1 0 1 1\n2\n\x00\x00", // header/variable mismatch
		"aig 2 1 0 1 1\n9\n\x00\x00", // zero first delta
	} {
		if _, err := ReadAIGERBinary(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
