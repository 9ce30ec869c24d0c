package spice

import (
	"math"
	"strings"
	"testing"

	"repro/internal/device"
)

func TestVoltageDividerDC(t *testing.T) {
	c := New(300)
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddVSource(in, Ground, DC(1.0))
	c.AddResistor(in, mid, 1e3)
	c.AddResistor(mid, Ground, 3e3)
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := x[mid]; math.Abs(got-0.75) > 1e-6 {
		t.Errorf("divider mid = %v, want 0.75", got)
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	c := New(300)
	a := c.Node("a")
	br := c.AddVSource(a, Ground, DC(2.0))
	c.AddResistor(a, Ground, 1e3)
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	// 2 mA flows out of the pos terminal into the resistor, so the MNA
	// branch current (pos -> through source -> neg) is -2 mA.
	got := x[c.NumNodes()+br]
	if math.Abs(got+2e-3) > 1e-9 {
		t.Errorf("branch current = %v, want -2e-3", got)
	}
}

func TestRCCharging(t *testing.T) {
	// R = 1k, C = 1pF, tau = 1ns; step to 1 V.
	c := New(300)
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource(in, Ground, DC(1.0))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, Ground, 1e-12)
	wf, err := c.Transient(5e-9, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	v := wf.V("out")
	// Initial op point charges the cap instantly at DC (cap open, no load
	// current): out starts at 1.0. To test dynamics, use a PWL source
	// instead.
	_ = v

	c2 := New(300)
	in2 := c2.Node("in")
	out2 := c2.Node("out")
	c2.AddVSource(in2, Ground, PWL([2]float64{0, 0}, [2]float64{1e-12, 1}))
	c2.AddResistor(in2, out2, 1e3)
	c2.AddCapacitor(out2, Ground, 1e-12)
	wf2, err := c2.Transient(5e-9, 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	v2 := wf2.V("out")
	// Compare with 1 - exp(-t/tau) at a few points (BE has O(dt) error).
	for _, frac := range []float64{0.2, 0.5, 0.9} {
		tau := 1e-9
		tt := -tau * math.Log(1-frac)
		// Find nearest sample.
		idx := 0
		for i, tm := range wf2.Time {
			if tm <= tt {
				idx = i
			}
		}
		if math.Abs(v2[idx]-frac) > 0.03 {
			t.Errorf("RC charge at t=%.3gns: got %v, want ~%v", tt*1e9, v2[idx], frac)
		}
	}
}

func TestRCEnergyConservation(t *testing.T) {
	// Charging a capacitor through a resistor from a step supply draws
	// E = C*V^2 from the source: half stored, half dissipated.
	c := New(300)
	in := c.Node("in")
	out := c.Node("out")
	fn := PWL([2]float64{0, 0}, [2]float64{1e-12, 1})
	br := c.AddVSource(in, Ground, fn)
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, Ground, 1e-12)
	wf, err := c.Transient(20e-9, 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	e := wf.SupplyEnergy(br, fn)
	want := 1e-12 * 1 * 1 // C*V^2
	if math.Abs(e-want)/want > 0.05 {
		t.Errorf("supply energy = %v, want ~%v (C*V^2)", e, want)
	}
}

func buildInverter(temp float64, nfin int, loadF float64) (*Circuit, int, SourceFn) {
	c := New(temp)
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	supply := DC(0.7)
	br := c.AddVSource(vdd, Ground, supply)
	c.AddMOSFET(device.NewP(nfin), out, in, vdd, vdd)
	c.AddMOSFET(device.NewN(nfin), out, in, Ground, Ground)
	if loadF > 0 {
		c.AddCapacitor(out, Ground, loadF)
	}
	return c, br, supply
}

func TestInverterDCTransfer(t *testing.T) {
	for _, temp := range []float64{300, 10} {
		c, _, _ := buildInverter(temp, 1, 0)
		in := c.Node("in")
		out := c.Node("out")
		var prev float64 = math.Inf(1)
		for _, vin := range []float64{0, 0.175, 0.35, 0.525, 0.7} {
			cc, _, _ := buildInverter(temp, 1, 0)
			cc.AddVSource(in, Ground, DC(vin))
			x, err := cc.OpPoint()
			if err != nil {
				t.Fatalf("T=%v vin=%v: %v", temp, vin, err)
			}
			vout := x[out]
			if vout > prev+1e-3 {
				t.Errorf("T=%v: VTC not monotone at vin=%v: %v > %v", temp, vin, vout, prev)
			}
			prev = vout
		}
		// Rails.
		cc, _, _ := buildInverter(temp, 1, 0)
		cc.AddVSource(in, Ground, DC(0))
		x, err := cc.OpPoint()
		if err != nil {
			t.Fatal(err)
		}
		if x[out] < 0.69 {
			t.Errorf("T=%v: inverter high output %v, want ~0.7", temp, x[out])
		}
		cc2, _, _ := buildInverter(temp, 1, 0)
		cc2.AddVSource(in, Ground, DC(0.7))
		x2, err := cc2.OpPoint()
		if err != nil {
			t.Fatal(err)
		}
		if x2[out] > 0.01 {
			t.Errorf("T=%v: inverter low output %v, want ~0", temp, x2[out])
		}
	}
}

func TestInverterTransientDelay(t *testing.T) {
	const vdd = 0.7
	for _, temp := range []float64{300, 10} {
		c, _, _ := buildInverter(temp, 2, 1e-15)
		in := c.Node("in")
		slew := 20e-12
		c.AddVSource(in, Ground, PWL([2]float64{10e-12, 0}, [2]float64{10e-12 + slew, vdd}))
		wf, err := c.Transient(400e-12, 0.5e-12)
		if err != nil {
			t.Fatalf("T=%v: %v", temp, err)
		}
		vin := wf.V("in")
		vout := wf.V("out")
		tIn, ok1 := wf.CrossTime(vin, vdd/2, true, 0)
		tOut, ok2 := wf.CrossTime(vout, vdd/2, false, 0)
		if !ok1 || !ok2 {
			t.Fatalf("T=%v: crossings not found", temp)
		}
		delay := tOut - tIn
		if delay <= 0 || delay > 100e-12 {
			t.Errorf("T=%v: inverter delay %v s implausible", temp, delay)
		}
		// Output must settle low.
		if wf.Final(vout) > 0.02 {
			t.Errorf("T=%v: output did not settle low: %v", temp, wf.Final(vout))
		}
	}
}

func TestInverterLeakageTemperature(t *testing.T) {
	// Static supply current of an inverter with input low: the paper's
	// orders-of-magnitude leakage reduction must appear at circuit level.
	leak := func(temp float64) float64 {
		c, br, _ := buildInverter(temp, 1, 0)
		c.AddVSource(c.Node("in"), Ground, DC(0))
		x, err := c.OpPoint()
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(x[c.NumNodes()+br])
	}
	l300 := leak(300)
	l10 := leak(10)
	if l300 <= 0 || l10 <= 0 {
		t.Fatalf("leakage currents must be positive: %v %v", l300, l10)
	}
	if r := l300 / l10; r < 50 {
		t.Errorf("inverter leakage reduction 300K/10K = %v, want >= 50x", r)
	}
}

func TestPulseSource(t *testing.T) {
	fn := Pulse(0, 1, 1e-9, 0.1e-9, 0.1e-9, 2e-9, 10e-9)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1.05e-9, 0.5}, {2e-9, 1}, {3.15e-9, 0.5}, {4e-9, 0},
		{11.05e-9, 0.5}, // periodic repeat
	}
	for _, cse := range cases {
		if got := fn(cse.t); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("Pulse(%g) = %v, want %v", cse.t, got, cse.want)
		}
	}
	// Period 0 is a single pulse, built directly or parsed from a deck.
	res, err := ParseNetlist(strings.NewReader("V1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 0)\n.end\n"), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed := res.Circuit.elems[0].(*vsource).fn
	single := []struct{ t, want float64 }{
		{0, 0}, {1.05e-9, 0.5}, {2e-9, 1}, {3.15e-9, 0.5}, {4e-9, 0},
		{11.05e-9, 0}, {1e-6, 0}, // no repeat
	}
	for name, fn := range map[string]SourceFn{"Pulse": Pulse(0, 1, 1e-9, 0.1e-9, 0.1e-9, 2e-9, 0), "PULSE": parsed} {
		for _, cse := range single {
			if got := fn(cse.t); math.Abs(got-cse.want) > 1e-9 {
				t.Errorf("%s period 0 at %g = %v, want %v", name, cse.t, got, cse.want)
			}
		}
	}
}

func TestPWLSource(t *testing.T) {
	fn := PWL([2]float64{1, 0}, [2]float64{2, 1})
	if fn(0) != 0 || fn(3) != 1 {
		t.Error("PWL clamping failed")
	}
	if got := fn(1.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PWL(1.5) = %v, want 0.5", got)
	}
}

func TestParseNetlistDivider(t *testing.T) {
	deck := `* divider
V1 in 0 DC 1.0
R1 in mid 1k
R2 mid 0 1k
.end
`
	res, err := ParseNetlist(strings.NewReader(deck), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := res.Circuit.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Circuit.Node("mid")
	if math.Abs(x[mid]-0.5) > 1e-6 {
		t.Errorf("parsed divider mid = %v, want 0.5", x[mid])
	}
}

func TestParseNetlistInverterTran(t *testing.T) {
	deck := `* inverter
.temp 10
VDD vdd 0 DC 0.7
VIN in 0 PWL(0 0 10p 0 30p 0.7)
MP out in vdd vdd pfet nfin=2
MN out in 0 0 nfet nfin=2
CL out 0 1f
.tran 1p 300p
.end
`
	res, err := ParseNetlist(strings.NewReader(deck), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.Temp != 10 {
		t.Errorf("temp = %v, want 10", res.Circuit.Temp)
	}
	if !res.HasTran || res.Tstop != 300e-12 {
		t.Errorf("tran card parse: %+v", res)
	}
	wf, err := res.Circuit.Transient(res.Tstop, res.Tstep)
	if err != nil {
		t.Fatal(err)
	}
	if out := wf.Final(wf.V("out")); out > 0.05 {
		t.Errorf("inverter output after rise input = %v, want ~0", out)
	}
}

func TestParseValueSuffixes(t *testing.T) {
	cases := map[string]float64{
		"1k": 1e3, "2.5n": 2.5e-9, "10p": 1e-11, "3meg": 3e6,
		"1f": 1e-15, "0.5u": 5e-7, "7m": 7e-3, "2g": 2e9, "1.5": 1.5,
	}
	for in, want := range cases {
		got, err := ParseValue(in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", in, err)
			continue
		}
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("ParseValue(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseValue("abc"); err == nil {
		t.Error("ParseValue(abc) should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R1 a b\n",            // missing value
		"M1 d g s nfet\n",     // missing bulk
		"V1 a 0 PWL(0)\n",     // odd PWL args
		"X1 a b c\n",          // unknown card
		"M1 d g s b xfet\n",   // unknown model
		"V1 a 0 PULSE(1 2)\n", // short pulse
	}
	for _, deck := range bad {
		if _, err := ParseNetlist(strings.NewReader(deck), ParseOptions{}); err == nil {
			t.Errorf("deck %q parsed without error", deck)
		}
	}
}

func TestNodeInterning(t *testing.T) {
	c := New(300)
	a := c.Node("x")
	b := c.Node("x")
	if a != b {
		t.Error("same name gave different IDs")
	}
	if c.Node("0") != Ground || c.Node("gnd") != Ground || c.Node("vss") != Ground {
		t.Error("ground aliases not mapped to Ground")
	}
	if c.NodeName(a) != "x" || c.NodeName(Ground) != "0" {
		t.Error("NodeName round-trip failed")
	}
}

func TestRCDischarge(t *testing.T) {
	// Precharged cap discharging through a resistor: v = exp(-t/tau).
	c := New(300)
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource(in, Ground, PWL([2]float64{0, 1}, [2]float64{1e-12, 0}))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, Ground, 1e-12)
	wf, err := c.Transient(3e-9, 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	v := wf.V("out")
	// After one tau (1ns) the voltage should be ~0.37.
	idx := 0
	for i, tm := range wf.Time {
		if tm <= 1e-9 {
			idx = i
		}
	}
	if math.Abs(v[idx]-math.Exp(-1)) > 0.03 {
		t.Errorf("discharge at tau: %v, want ~0.368", v[idx])
	}
}

func TestCurrentSourceDC(t *testing.T) {
	c := New(300)
	a := c.Node("a")
	c.AddISource(Ground, a, DC(1e-3)) // push 1 mA into a
	c.AddResistor(a, Ground, 1e3)
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[a]-1.0) > 1e-6 {
		t.Errorf("V(a) = %v, want 1.0 (1mA * 1k)", x[a])
	}
}

func TestClampElement(t *testing.T) {
	c := New(300)
	a := c.Node("a")
	c.AddVSource(c.Node("s"), Ground, DC(1))
	c.AddResistor(c.Node("s"), a, 1e3)
	on := true
	c.AddClamp(a, 0, func(float64) float64 {
		if on {
			return 1 // 1 S: crushes the node to ~0
		}
		return 0
	})
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	if x[a] > 0.01 {
		t.Errorf("clamped node at %v, want ~0", x[a])
	}
	on = false
	x2, err := c.OpPointFrom(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x2[a]-1.0) > 1e-6 {
		t.Errorf("released node at %v, want 1.0", x2[a])
	}
}

func TestTwoSupplies(t *testing.T) {
	// Two voltage sources with a resistor bridge; superposition check.
	c := New(300)
	a := c.Node("a")
	b := c.Node("b")
	m := c.Node("m")
	c.AddVSource(a, Ground, DC(1))
	c.AddVSource(b, Ground, DC(0.5))
	c.AddResistor(a, m, 1e3)
	c.AddResistor(b, m, 1e3)
	c.AddResistor(m, Ground, 1e3)
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[m]-0.5) > 1e-9 {
		t.Errorf("V(m) = %v, want 0.5", x[m])
	}
}

func TestTransientRejectsBadWindow(t *testing.T) {
	c := New(300)
	c.AddVSource(c.Node("a"), Ground, DC(1))
	if _, err := c.Transient(0, 1e-12); err == nil {
		t.Error("zero tstop accepted")
	}
	if _, err := c.Transient(1e-9, 0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestPassGateThroughNMOS(t *testing.T) {
	// NMOS pass transistor: output follows input up to Vdd - Vth.
	c := New(300)
	g := c.Node("g")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource(g, Ground, DC(0.7))
	c.AddVSource(in, Ground, DC(0.7))
	c.AddResistor(out, Ground, 1e8) // weak load
	c.AddMOSFET(device.NewN(2), out, g, in, Ground)
	x, err := c.OpPoint()
	if err != nil {
		t.Fatal(err)
	}
	vth := device.DefaultNParams()
	expected := 0.7 - vth.Vth0
	if x[out] < expected-0.15 || x[out] > 0.7 {
		t.Errorf("pass-gate output %v, want near Vdd-Vth (~%v)", x[out], expected)
	}
}
