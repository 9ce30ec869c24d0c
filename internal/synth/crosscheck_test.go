package synth

import (
	"context"
	"testing"

	"repro/internal/aig"
	"repro/internal/charlib"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/spice"
	"repro/internal/sta"
)

// TestSTAMatchesSPICE closes the loop across the whole stack: a circuit is
// mapped onto a small SPICE-characterized library, its critical delay is
// predicted by liberty-table STA, and then the very same mapped netlist is
// expanded transistor-by-transistor and re-simulated with the SPICE engine.
// The two delays must agree within NLDM-interpolation accuracy.
func TestSTAMatchesSPICE(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed cross-check skipped in -short mode")
	}
	subset := []string{"INVx1", "BUFx1", "NAND2x1", "NOR2x1", "AND2x1", "OR2x1",
		"NAND2Bx1", "NOR2Bx1", "AND2Bx1", "OR2Bx1", "XOR2x1", "XNOR2x1"}
	catalog := pdk.Catalog()
	var cells []*pdk.Cell
	for _, n := range subset {
		cells = append(cells, pdk.FindCell(catalog, n))
	}
	const temp = 300.0
	lib, err := charlib.CharacterizeLibrary(context.Background(), "xcheck", cells, charlib.QuickConfig(temp))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mapper.BuildMatchLibrary(lib, cells, 4)
	if err != nil {
		t.Fatal(err)
	}

	// XOR chain: every input toggle propagates to the output, so the SPICE
	// measurement excites the same path STA reports.
	g := aig.New("xorchain")
	n := 4
	pis := make([]aig.Lit, n)
	pis[0] = g.AddPI("x0")
	for i := 1; i < n; i++ {
		pis[i] = g.AddPI(itoaPI(i))
	}
	acc := pis[0]
	for i := 1; i < n; i++ {
		acc = g.Xor(acc, pis[i])
	}
	g.AddPO(acc, "y")

	nl, err := mapper.Map(context.Background(), g, ml, mapper.Options{Mode: mapper.Baseline, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	const vdd = 0.7
	const inSlew = 10e-12
	const outCap = 1e-15
	staRes, err := sta.Analyze(context.Background(), nl, lib, sta.Options{InputSlew: inSlew, OutputCap: outCap, WireCap: 1e-18})
	if err != nil {
		t.Fatal(err)
	}
	if staRes.CriticalDelay <= 0 {
		t.Fatal("STA returned no delay")
	}

	// Transistor-level re-simulation of the mapped netlist.
	c := spice.New(temp)
	_, nodes, err := nl.BuildSPICE(c, vdd)
	if err != nil {
		t.Fatal(err)
	}
	t0 := 30e-12
	ramp := inSlew
	c.AddVSource(nodes["x0"], spice.Ground, spice.PWL(
		[2]float64{0, 0}, [2]float64{t0, 0}, [2]float64{t0 + ramp, vdd}))
	for i := 1; i < n; i++ {
		c.AddVSource(nodes[itoaPI(i)], spice.Ground, spice.DC(0))
	}
	c.AddCapacitor(nodes["y"], spice.Ground, outCap)
	wf, err := c.Transient(1.2e-9, 0.5e-12)
	if err != nil {
		t.Fatal(err)
	}
	in := wf.V(c.NodeName(nodes["x0"]))
	out := wf.V(c.NodeName(nodes["y"]))
	tIn, ok1 := wf.CrossTime(in, vdd/2, true, 0)
	// The output direction depends on the mapped polarity chain; find
	// either crossing after the stimulus.
	tOut, ok2 := wf.CrossTime(out, vdd/2, true, tIn)
	if !ok2 {
		tOut, ok2 = wf.CrossTime(out, vdd/2, false, tIn)
	}
	if !ok1 || !ok2 {
		t.Fatal("SPICE crossings not found")
	}
	spiceDelay := tOut - tIn

	ratio := spiceDelay / staRes.CriticalDelay
	t.Logf("critical delay: STA %.2f ps vs SPICE %.2f ps (ratio %.2f, %d gates)",
		staRes.CriticalDelay*1e12, spiceDelay*1e12, ratio, nl.NumGates())
	// STA is worst-case over arcs/directions and quantized to the NLDM
	// grid; the single measured path must land in the same regime.
	if ratio < 0.3 || ratio > 1.6 {
		t.Errorf("STA and SPICE disagree: STA %.3g s, SPICE %.3g s", staRes.CriticalDelay, spiceDelay)
	}
}

func itoaPI(i int) string {
	return "x" + string(rune('0'+i))
}
