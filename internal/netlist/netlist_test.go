package netlist

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pdk"
)

var catalog = pdk.Catalog()

func simpleNetlist(t testing.TB) *Netlist {
	t.Helper()
	nl := New("simple", catalog)
	nl.Inputs = []string{"a", "b"}
	if err := nl.AddGate("NAND2x1", []string{"a", "b"}, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddGate("INVx1", []string{"n1"}, "n2"); err != nil {
		t.Fatal(err)
	}
	nl.Outputs = []string{"y"}
	nl.Aliases["y"] = "n2"
	return nl
}

// simOutputs compiles nl and returns its primary-output words under the
// given input words (port order).
func simOutputs(t *testing.T, nl *Netlist, in ...uint64) []uint64 {
	t.Helper()
	g, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := g.SimWords(in)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(g.Outputs))
	for o, id := range g.Outputs {
		out[o] = vals[id]
	}
	return out
}

func TestEvalAndGate(t *testing.T) {
	nl := simpleNetlist(t)
	// Bit i of the words is the input pattern a = i&1, b = i&2.
	if y := simOutputs(t, nl, 0b1010, 0b1100)[0] & 0xF; y != 0b1000 {
		t.Errorf("y = %04b, want 1000", y)
	}
}

func TestSimWordsMatchesBitwise(t *testing.T) {
	nl := simpleNetlist(t)
	g, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := g.SimWords([]uint64{0b1100, 0b1010})
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := g.NetIndex("n1")
	n2, _ := g.NetIndex("n2")
	if vals[n2]&0xF != 0b1000 {
		t.Errorf("AND word = %b", vals[n2]&0xF)
	}
	if vals[n1]&0xF != 0b0111 {
		t.Errorf("NAND word = %b", vals[n1]&0xF)
	}
	if vals[NetConst0] != 0 || vals[NetConst1] != ^uint64(0) {
		t.Errorf("constant words = %x, %x", vals[NetConst0], vals[NetConst1])
	}
	if _, err := g.SimWords([]uint64{1}); err == nil {
		t.Error("short input plane accepted")
	}
}

func TestAddGateValidation(t *testing.T) {
	nl := New("bad", catalog)
	if err := nl.AddGate("NOPE", []string{"a"}, "y"); err == nil {
		t.Error("unknown cell accepted")
	}
	if err := nl.AddGate("NAND2x1", []string{"a"}, "y"); err == nil {
		t.Error("wrong pin count accepted")
	}
}

func TestUseBeforeDriveDetected(t *testing.T) {
	nl := New("order", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"ghost"}, "n1")
	if _, err := Compile(nl); err == nil || !strings.Contains(err.Error(), "used before driven") {
		t.Errorf("Compile = %v, want use-before-drive error", err)
	}
}

// TestToggleRates pins AddToggles on random stimulus: 8 rounds of 64
// vectors, one fresh word per input per round.
func TestToggleRates(t *testing.T) {
	g, err := Compile(simpleNetlist(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	toggles := make([]int64, g.NumNets())
	var prev []uint64
	const rounds = 8
	for r := 0; r < rounds; r++ {
		vals, err := g.SimWords([]uint64{rng.Uint64(), rng.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		AddToggles(toggles, prev, vals, 64)
		prev = vals
	}
	rate := func(net string) float64 {
		id, _ := g.NetIndex(net)
		return float64(toggles[id]) / (rounds * 64)
	}
	// Random inputs toggle with rate ~0.5; the AND output toggles at
	// ~2*(1/4)*(3/4) = 0.375.
	if math.Abs(rate("a")-0.5) > 0.06 {
		t.Errorf("input toggle rate %v, want ~0.5", rate("a"))
	}
	if math.Abs(rate("n2")-0.375) > 0.06 {
		t.Errorf("AND toggle rate %v, want ~0.375", rate("n2"))
	}
	// NAND and its inverse toggle identically; constants never toggle.
	if rate("n1") != rate("n2") {
		t.Errorf("complementary nets with different rates: %v vs %v", rate("n1"), rate("n2"))
	}
	if toggles[NetConst0] != 0 || toggles[NetConst1] != 0 {
		t.Errorf("constant toggles = %d, %d", toggles[NetConst0], toggles[NetConst1])
	}
	// A partial plane counts only its first n vectors.
	partial := make([]int64, g.NumNets())
	AddToggles(partial, nil, []uint64{0, 0, 0b0110, 0}, 2)
	if partial[2] != 1 {
		t.Errorf("2-vector toggles of 01 = %d, want 1", partial[2])
	}
}

func TestAreaAndCounts(t *testing.T) {
	nl := simpleNetlist(t)
	if nl.Area() <= 0 {
		t.Error("area must be positive")
	}
	counts := nl.CellCounts()
	if counts["NAND2x1"] != 1 || counts["INVx1"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if nl.NumGates() != 2 {
		t.Errorf("gates = %d", nl.NumGates())
	}
}

func TestWriteVerilog(t *testing.T) {
	nl := simpleNetlist(t)
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module simple (a, b, y);",
		"input a;",
		"output y;",
		"NAND2x1 g0 (.A(a), .B(b), .Y(n1));",
		"assign y = n2;",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestFanouts(t *testing.T) {
	nl := New("fan", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"a"}, "n1")
	nl.AddGate("INVx1", []string{"n1"}, "n2")
	nl.AddGate("NAND2x1", []string{"n1", "n2"}, "n3")
	nl.Outputs = []string{"n3"}
	g, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := g.NetIndex("n1")
	if f := g.Fanouts[n1]; len(f) != 2 || f[0] != 1 || f[1] != 2 {
		t.Errorf("n1 fanouts = %v, want [1 2]", f)
	}
	if g.Driver[n1] != 0 || g.Driver[g.Inputs[0]] != -1 {
		t.Errorf("drivers: n1 %d, a %d", g.Driver[n1], g.Driver[g.Inputs[0]])
	}
	if g.Depth() != 3 {
		t.Errorf("depth = %d, want 3", g.Depth())
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	nl := simpleNetlist(t)
	nl.AddGate("AOI21x1", []string{"a", "b", "n2"}, "n3")
	nl.Outputs = append(nl.Outputs, "z")
	nl.Aliases["z"] = "n3"
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVerilog(strings.NewReader(sb.String()), catalog)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Name != nl.Name || back.NumGates() != nl.NumGates() {
		t.Fatalf("structure lost: %d gates vs %d", back.NumGates(), nl.NumGates())
	}
	// Functional equivalence over all input vectors.
	w1 := simOutputs(t, nl, 0b1010, 0b1100)
	w2 := simOutputs(t, back, 0b1010, 0b1100)
	for o := range nl.Outputs {
		if w1[o]&0xF != w2[o]&0xF {
			t.Fatalf("output %s differs after round trip: %04b vs %04b", nl.Outputs[o], w1[o]&0xF, w2[o]&0xF)
		}
	}
}

var garbageSources = []string{
	"",
	"module m (a); input a; NOPE g0 (.A(a), .Y(y)); endmodule",
	"module m (a); input a; INVx1 g0 (a, y); endmodule",                               // positional ports
	"module m (a); input a; INVx1 g0 (.Y(y)); endmodule",                              // missing pin
	"wire w; module m (a); endmodule",                                                 // decl before module
	"module m (a, y); input a; output y; input a; INVx1 g0 (.A(a), .Y(y)); endmodule", // duplicate port
	"module m (a); input a; output a; endmodule",                                      // port both ways
}

func TestReadVerilogRejectsGarbage(t *testing.T) {
	for _, src := range garbageSources {
		if _, err := ReadVerilog(strings.NewReader(src), catalog); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

const tiesSource = `// constant ties on pins and assigns
module ties (a, y, z);
input a;
output y;
output z;
wire n1;
NAND2x1 g0 (.A(a), .B(1'b1), .Y(n1));
assign y = n1;
assign z = 1'b0;
endmodule`

func TestReadVerilogConstantTies(t *testing.T) {
	nl, err := ReadVerilog(strings.NewReader(tiesSource), catalog)
	if err != nil {
		t.Fatal(err)
	}
	if issues := nl.Check(); len(issues) != 0 {
		t.Errorf("constant-tied netlist has issues: %v", issues)
	}
	// y = NAND(a, 1) = !a; z = 0 always.
	if out := simOutputs(t, nl, 0b10); out[0]&0b11 != 0b01 || out[1] != 0 {
		t.Errorf("a=10: got y=%02b z=%b", out[0]&0b11, out[1])
	}
}

var badConstantSources = []string{
	// only 1'b0 / 1'b1 are recognized literals
	"module m (a, y); input a; output y; INVx1 g0 (.A(2'b01), .Y(y)); endmodule",
	"module m (a, y); input a; output y; INVx1 g0 (.A(1'bx), .Y(y)); endmodule",
	// an instance must not drive a constant literal
	"module m (a); input a; INVx1 g0 (.A(a), .Y(1'b0)); endmodule",
}

func TestReadVerilogRejectsBadConstants(t *testing.T) {
	for _, src := range badConstantSources {
		if _, err := ReadVerilog(strings.NewReader(src), catalog); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

var lineNumberCases = []struct {
	src      string
	wantLine string
}{
	{"module m (a, y);\ninput a;\noutput y;\nNOPE g0 (.A(a), .Y(y));\nendmodule", "line 4"},
	{"module m (a, y);\ninput a;\n\noutput y;\nINVx1 g0 (a, y);\nendmodule", "line 5"},
	{"wire w;\nmodule m (a);\nendmodule", "line 1"},
	{"module m (a, y);\ninput a;\noutput y;\nINVx1 g0 (.Y(y));\nendmodule", "line 4"},
	{"module m (a, y);\ninput a;\noutput y;\noutput a;\nendmodule", "line 4"},
}

func TestReadVerilogErrorsCarryLineNumbers(t *testing.T) {
	for _, tc := range lineNumberCases {
		_, err := ReadVerilog(strings.NewReader(tc.src), catalog)
		if err == nil {
			t.Errorf("accepted %q", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("error %q does not name %s (source %q)", err, tc.wantLine, tc.src)
		}
	}
}

func TestCheckCleanNetlist(t *testing.T) {
	nl := simpleNetlist(t)
	if issues := nl.Check(); len(issues) != 0 {
		t.Errorf("clean netlist reported issues: %v", issues)
	}
}

func TestCheckFindsProblems(t *testing.T) {
	nl := New("broken", catalog)
	nl.Inputs = []string{"a"}
	nl.AddGate("INVx1", []string{"ghost"}, "n1") // bad order: ghost undriven
	nl.AddGate("INVx1", []string{"a"}, "n1")     // multi-driver on n1
	nl.AddGate("INVx1", []string{"a"}, "dead")   // unused gate
	nl.Outputs = []string{"y"}
	nl.Aliases["y"] = "nowhere" // undriven output
	kinds := map[string]bool{}
	for _, is := range nl.Check() {
		kinds[is.Kind] = true
	}
	for _, want := range []string{"bad-order", "multi-driver", "unused-gate", "undriven-output"} {
		if !kinds[want] {
			t.Errorf("missing issue kind %q (got %v)", want, kinds)
		}
	}
}

func TestCheckMappedCircuitsClean(t *testing.T) {
	// The mapper's output must always pass DRC (checked here on a hand
	// netlist standing in for mapper output via the round-trip path).
	nl := simpleNetlist(t)
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVerilog(strings.NewReader(sb.String()), catalog)
	if err != nil {
		t.Fatal(err)
	}
	if issues := back.Check(); len(issues) != 0 {
		t.Errorf("round-tripped netlist has issues: %v", issues)
	}
}

// TestWriteVerilogRejectsNameCollision: "a.0" and "a_0" both write as
// a_0, which would re-read NAND2(a.0, a_0) as an inverter of one net.
func TestWriteVerilogRejectsNameCollision(t *testing.T) {
	nl := New("clash", catalog)
	nl.Inputs = []string{"a.0", "a_0"}
	if err := nl.AddGate("NAND2x1", []string{"a.0", "a_0"}, "y"); err != nil {
		t.Fatal(err)
	}
	nl.Outputs = []string{"y"}
	var sb strings.Builder
	err := nl.WriteVerilog(&sb)
	if err == nil || !strings.Contains(err.Error(), `"a.0" and "a_0" both write as "a_0"`) {
		t.Fatalf("WriteVerilog = %v, want a name-collision error", err)
	}
	if sb.Len() != 0 {
		t.Errorf("wrote %d bytes despite the collision", sb.Len())
	}
	// Distinct nets that stay distinct after sanitizing still write.
	nl.Inputs[1], nl.Gates[0].Inputs[1] = "a[1]", "a[1]"
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Errorf("WriteVerilog without a collision: %v", err)
	}
}

func TestReadVerilogRejectsDuplicatePort(t *testing.T) {
	for _, src := range []string{
		"module m (a, y); input a; input a; output y; INVx1 g0 (.A(a), .Y(y)); endmodule",
		"module m (a, y); input a, a; output y; INVx1 g0 (.A(a), .Y(y)); endmodule",
		"module m (a, y); input a; output y; output y; INVx1 g0 (.A(a), .Y(y)); endmodule",
		"module m (a); input a; output a; endmodule",
	} {
		_, err := ReadVerilog(strings.NewReader(src), catalog)
		if err == nil || !strings.Contains(err.Error(), "declared twice") {
			t.Errorf("ReadVerilog(%q) = %v, want a duplicate-port error", src, err)
		}
	}
}
