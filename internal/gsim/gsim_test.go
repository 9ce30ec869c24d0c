package gsim

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// mapped is a synthesized EPFL smoke circuit shared across tests.
type mappedCircuit struct {
	g   *aig.AIG
	nl  *netlist.Netlist
	lib *liberty.Library
}

var (
	mappedMu    sync.Mutex
	mappedCache = map[string]*mappedCircuit{}
)

// buildMapped synthesizes an EPFL circuit through the real flow (testlib
// liberty model, cut mapper, CryoPDA scenario) and caches the result.
func buildMapped(t *testing.T, name string) *mappedCircuit {
	t.Helper()
	mappedMu.Lock()
	defer mappedMu.Unlock()
	if c, ok := mappedCache[name]; ok {
		return c
	}
	g, err := epfl.Build(name)
	if err != nil {
		t.Fatalf("epfl.Build(%s): %v", name, err)
	}
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 300)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		t.Fatalf("match library: %v", err)
	}
	res, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: 1})
	if err != nil {
		t.Fatalf("synthesize %s: %v", name, err)
	}
	c := &mappedCircuit{g: g, nl: res.Netlist, lib: lib}
	mappedCache[name] = c
	return c
}

var smokeCircuits = []string{"ctrl", "dec", "int2float"}

// aigOutputBits simulates the source AIG over the same vectors, returning
// per-vector output values keyed by PO name.
func aigOutputBits(t *testing.T, g *aig.AIG, m *Model, vectors []Vector) [][]bool {
	t.Helper()
	// Map the model's input order onto AIG PI order by name.
	piPos := make([]int, g.NumPIs())
	for i := 0; i < g.NumPIs(); i++ {
		found := false
		for j, name := range m.InputNames {
			if name == g.PIName(i) {
				piPos[i] = j
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("AIG PI %q not a model input", g.PIName(i))
		}
	}
	// Map model outputs onto AIG PO indices by name.
	poIdx := make([]int, len(m.OutputNames))
	for o, name := range m.OutputNames {
		found := false
		for i := 0; i < g.NumPOs(); i++ {
			if g.POName(i) == name {
				poIdx[o] = i
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("model output %q not an AIG PO", name)
		}
	}
	out := make([][]bool, len(vectors))
	words := make([]uint64, g.NumPIs())
	for base := 0; base < len(vectors); base += 64 {
		chunk := len(vectors) - base
		if chunk > 64 {
			chunk = 64
		}
		for i := range words {
			var w uint64
			for b := 0; b < chunk; b++ {
				if vectors[base+b][piPos[i]] {
					w |= 1 << uint(b)
				}
			}
			words[i] = w
		}
		vals := g.SimWords(words)
		for b := 0; b < chunk; b++ {
			ob := make([]bool, len(m.OutputNames))
			for o := range m.OutputNames {
				ob[o] = aig.EvalLit(vals, g.PO(poIdx[o]))&(1<<uint(b)) != 0
			}
			out[base+b] = ob
		}
	}
	return out
}

func diffBits(a, b [][]bool) (int, int, bool) {
	for v := range a {
		for o := range a[v] {
			if a[v][o] != b[v][o] {
				return v, o, false
			}
		}
	}
	return 0, 0, true
}

// TestEngineCrossCheck is the tentpole acceptance test: on every EPFL smoke
// circuit, 256 seeded random vectors must produce identical primary-output
// values from the levelized engine, the event engine (unit delays), the
// event engine (liberty-annotated delays), and word-parallel simulation of
// the pre-mapping AIG.
func TestEngineCrossCheck(t *testing.T) {
	ctx := context.Background()
	for _, name := range smokeCircuits {
		t.Run(name, func(t *testing.T) {
			c := buildMapped(t, name)
			m, err := Compile(c.nl)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			vectors := m.RandomVectors(256, 42)

			lev, err := NewLevelized(m).Run(ctx, vectors)
			if err != nil {
				t.Fatalf("levelized: %v", err)
			}
			evt, err := NewEvent(m, EventOptions{}).Run(ctx, vectors)
			if err != nil {
				t.Fatalf("event: %v", err)
			}
			if err := m.Annotate(ctx, c.lib, sta.Options{}); err != nil {
				t.Fatalf("annotate: %v", err)
			}
			ann, err := NewEvent(m, EventOptions{}).Run(ctx, vectors)
			if err != nil {
				t.Fatalf("event annotated: %v", err)
			}
			ref := aigOutputBits(t, c.g, m, vectors)

			for _, r := range []*Result{evt, ann} {
				if v, o, ok := diffBits(lev.OutputBits, r.OutputBits); !ok {
					t.Errorf("%s: vector %d output %s: levelized=%v %s=%v",
						r.Engine, v, m.OutputNames[o], lev.OutputBits[v][o], r.Engine, r.OutputBits[v][o])
				}
			}
			if v, o, ok := diffBits(lev.OutputBits, ref); !ok {
				t.Errorf("AIG mismatch: vector %d output %s", v, m.OutputNames[o])
			}

			// The settled state after the last vector must agree net-by-net.
			for _, r := range []*Result{evt, ann} {
				for i := range m.Nets {
					if r.Final[i] != lev.Final[i] {
						t.Errorf("%s: net %s settled to %s, levelized %s",
							r.Engine, m.Nets[i], r.Final[i], lev.Final[i])
					}
				}
			}

			// Transport-delay simulation sees every settled transition plus
			// hazard glitches, never fewer.
			if evt.TotalToggles() < lev.TotalToggles() {
				t.Errorf("event engine counted %d toggles < levelized %d",
					evt.TotalToggles(), lev.TotalToggles())
			}
		})
	}
}

// glitchFixture builds the canonical hazard circuit: y = XOR(a, INV(INV(a))).
// The settled value of y is constant 0, so a zero-delay simulator never
// toggles it; with transport delays every edge of a races its delayed copy
// through the XOR, emitting a two-toggle pulse.
func glitchFixture(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("glitch", pdk.Catalog())
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"y"}
	for _, g := range []struct {
		cell string
		in   []string
		out  string
	}{
		{"INVx1", []string{"a"}, "n1"},
		{"INVx1", []string{"n1"}, "n2"},
		{"XOR2x1", []string{"a", "n2"}, "y"},
	} {
		if err := nl.AddGate(g.cell, g.in, g.out); err != nil {
			t.Fatalf("AddGate(%s): %v", g.cell, err)
		}
	}
	return nl
}

func TestGlitchFixture(t *testing.T) {
	ctx := context.Background()
	m, err := Compile(glitchFixture(t))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Alternate a: 0,1,0,1,... — seven edges.
	vectors := make([]Vector, 8)
	for v := range vectors {
		vectors[v] = Vector{v%2 == 1}
	}
	lev, err := NewLevelized(m).Run(ctx, vectors)
	if err != nil {
		t.Fatalf("levelized: %v", err)
	}
	evt, err := NewEvent(m, EventOptions{}).Run(ctx, vectors)
	if err != nil {
		t.Fatalf("event: %v", err)
	}
	y, ok := m.NetIndex("y")
	if !ok {
		t.Fatal("net y missing")
	}
	if lev.Toggles[y] != 0 {
		t.Errorf("zero-delay y toggles = %d, want 0 (settled value is constant)", lev.Toggles[y])
	}
	if want := int64(14); evt.Toggles[y] != want {
		t.Errorf("event y toggles = %d, want %d (two per input edge)", evt.Toggles[y], want)
	}
	// Settled outputs still agree.
	if v, o, ok := diffBits(lev.OutputBits, evt.OutputBits); !ok {
		t.Errorf("outputs diverge at vector %d output %d", v, o)
	}
}

func TestEvalTruth3(t *testing.T) {
	const (
		and2 = uint64(0b1000)
		or2  = uint64(0b1110)
		xor2 = uint64(0b0110)
		buf  = uint64(0b10)
	)
	cases := []struct {
		name string
		tt   uint64
		in   []Value
		want Value
	}{
		{"and(1,1)", and2, []Value{V1, V1}, V1},
		{"and(0,x)", and2, []Value{V0, VX}, V0},
		{"and(x,0)", and2, []Value{VX, V0}, V0},
		{"and(1,x)", and2, []Value{V1, VX}, VX},
		{"or(1,x)", or2, []Value{V1, VX}, V1},
		{"or(0,x)", or2, []Value{V0, VX}, VX},
		{"xor(x,0)", xor2, []Value{VX, V0}, VX},
		{"xor(x,x)", xor2, []Value{VX, VX}, VX},
		{"buf(x)", buf, []Value{VX}, VX},
		{"buf(1)", buf, []Value{V1}, V1},
	}
	for _, c := range cases {
		if got := evalTruth3(c.tt, c.in); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompileRejectsDoubleDriver(t *testing.T) {
	nl := netlist.New("bad", pdk.Catalog())
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"y"}
	if err := nl.AddGate("INVx1", []string{"a"}, "y"); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddGate("BUFx1", []string{"a"}, "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(nl); err == nil || !strings.Contains(err.Error(), "driven twice") {
		t.Errorf("Compile = %v, want double-driver error", err)
	}
}

// TestEventVCDTrace smoke-checks the digital VCD path: scalar declarations,
// the all-X initial dump, and glitch pulses all land in the stream.
func TestEventVCDTrace(t *testing.T) {
	m, err := Compile(glitchFixture(t))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var buf bytes.Buffer
	tr := NewVCDTracer(&buf, m, "test")
	vectors := []Vector{{false}, {true}, {false}}
	if _, err := NewEvent(m, EventOptions{Trace: tr}).Run(context.Background(), vectors); err != nil {
		t.Fatalf("event: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1fs $end",
		"$var wire 1 ! " + netlist.Const0 + " $end",
		"$dumpvars",
		"#0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// The initial dump records every net as x.
	if got := strings.Count(out, "x"); got < m.NumNets() {
		t.Errorf("VCD has %d x entries, want >= %d nets", got, m.NumNets())
	}
}
