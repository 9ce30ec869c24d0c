package netlist

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadVerilog feeds the structural Verilog reader arbitrary text. It
// must never panic, and any netlist it accepts that compiles must survive
// WriteVerilog → ReadVerilog → Compile with the same port counts and the
// same output words on seeded random input words. WriteVerilog may refuse
// a netlist whose net names collide once sanitized, never merge them.
func FuzzReadVerilog(f *testing.F) {
	var sb strings.Builder
	if err := simpleNetlist(f).WriteVerilog(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add(tiesSource)
	f.Add("module clash (a.0, a_0, y); input a.0, a_0; output y; NAND2x1 g0 (.A(a.0), .B(a_0), .Y(y)); endmodule")
	for _, src := range garbageSources {
		f.Add(src)
	}
	for _, src := range badConstantSources {
		f.Add(src)
	}
	for _, tc := range lineNumberCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := ReadVerilog(strings.NewReader(src), catalog)
		if err != nil {
			return
		}
		g, err := Compile(nl)
		if err != nil {
			return
		}
		var out strings.Builder
		if err := nl.WriteVerilog(&out); err != nil {
			if !strings.Contains(err.Error(), "both write as") {
				t.Fatalf("WriteVerilog: %v", err)
			}
			return
		}
		back, err := ReadVerilog(strings.NewReader(out.String()), catalog)
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, out.String())
		}
		gb, err := Compile(back)
		if err != nil {
			t.Fatalf("re-compile: %v\n%s", err, out.String())
		}
		if len(gb.Inputs) != len(g.Inputs) || len(gb.Outputs) != len(g.Outputs) {
			t.Fatalf("ports %d/%d became %d/%d\n%s",
				len(g.Inputs), len(g.Outputs), len(gb.Inputs), len(gb.Outputs), out.String())
		}
		rng := rand.New(rand.NewSource(int64(len(src))))
		in := make([]uint64, len(g.Inputs))
		for round := 0; round < 4; round++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			v1, err1 := g.SimWords(in)
			v2, err2 := gb.SimWords(in)
			if err1 != nil || err2 != nil {
				t.Fatalf("SimWords: %v, %v", err1, err2)
			}
			for o := range g.Outputs {
				if v1[g.Outputs[o]] != v2[gb.Outputs[o]] {
					t.Fatalf("output %s differs after the round trip\n%s", g.OutputNames[o], out.String())
				}
			}
		}
	})
}
