package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/charlib"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/synth"
	"repro/internal/testlib"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func unitsOf(metrics map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range metrics {
		out[k] = v.Unit
	}
	return out
}

// TestTinyRuns runs every workload at a tiny plan size, untraced and
// traced, and requires the printed metric names and units to match
// BENCHMARK.json and every item to pass its oracle.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for trace := 0; trace < 2; trace++ {
			res, err := run(context.Background(), io.Discard, w.Name, 7, 0.1, trace == 1)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if got := unitsOf(res.Metrics); !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%d metrics %v, BENCHMARK.json lists %v", w.Name, trace, got, want[trace])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: %d of %d items failed", w.Name, trace, res.Failed, res.Attempted)
			}
		}
	}
}

// planNames lists the first two passes' item names, which carry every
// seed-drawn input choice: drive strengths, item order and flow seeds.
func planNames(t *testing.T, workload string, seed int64) []string {
	pass, err := workloads[workload].setup(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, it := range planItems(pass, 2*workloads[workload].passItems) {
		names = append(names, it.name)
	}
	return names
}

func TestSeedsDetermineInputs(t *testing.T) {
	for _, w := range []string{"char2corner", "synth_fig3", "signoff"} {
		a, b, c := planNames(t, w, 3), planNames(t, w, 3), planNames(t, w, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 gave two different plans", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same plan %v", w, a)
		}
	}
}

// corruptGate swaps the cell driving the netlist's first output for one
// with the same inputs and a different function.
func corruptGate(t *testing.T, nl *netlist.Netlist, cells []*pdk.Cell) {
	t.Helper()
	drv := nl.Resolve(nl.Outputs[0])
	for i := range nl.Gates {
		g := &nl.Gates[i]
		if g.Output != drv {
			continue
		}
		def := nl.Cell(g.Cell)
		tt, _ := def.Truth(def.Outputs[0])
		for _, c := range cells {
			ct, ok := c.Truth(c.Outputs[0])
			if ok && len(c.Outputs) == 1 && reflect.DeepEqual(c.Inputs, def.Inputs) && ct != tt {
				g.Cell = c.Name
				return
			}
		}
	}
	t.Fatalf("no swappable gate drives %s", drv)
}

func TestCharOracleCountsPerturbedTable(t *testing.T) {
	var refs map[string]charRef
	if err := json.Unmarshal(charReferenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	cell := pdk.FindCell(pdk.Catalog(), "INVx1")
	lc, err := charlib.CharacterizeCell(context.Background(), cell, charConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	ref := refs["INVx1@300K"]
	if err := checkCharCell(lc, ref); err != nil {
		t.Fatalf("clean cell fails its oracle: %v", err)
	}
	tables := charTables(lc)
	keys := make([]string, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tb := tables[keys[0]]
	for _, perturb := range []func(v float64) float64{
		func(v float64) float64 { return v * 1.05 }, // off the reference
		func(v float64) float64 { return -v },       // negative delay
	} {
		old := tb.Values[3][3]
		tb.Values[3][3] = perturb(old)
		if err := checkCharCell(lc, ref); err == nil {
			t.Errorf("perturbed %s[3][3] %g -> %g passes the oracle", keys[0], old, tb.Values[3][3])
		}
		tb.Values[3][3] = old
	}
	lc.LeakagePower *= 2
	if err := checkCharCell(lc, ref); err == nil {
		t.Error("doubled leakage passes the oracle")
	}
}

func fig3Setup(t *testing.T) (*liberty.Library, *mapper.MatchLibrary, []*pdk.Cell) {
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		t.Fatal(err)
	}
	return lib, ml, cells
}

func TestFig3OracleCountsSwappedGate(t *testing.T) {
	lib, ml, cells := fig3Setup(t)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPAD, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFunction(g, res.Netlist, 5); err != nil {
		t.Fatalf("clean netlist fails its oracle: %v", err)
	}
	corruptGate(t, res.Netlist, cells)
	if err := checkFunction(g, res.Netlist, 5); err == nil {
		t.Error("netlist with a swapped gate passes the functional oracle")
	}

	cmp, err := synth.Compare(context.Background(), g, ml, lib, synth.FlowOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad := *cmp
	bad.Metrics[synth.CryoPDA].Gates++
	if err := sameQoR(cmp, &bad); err == nil {
		t.Error("a changed gate count passes the QoR repeat check")
	}
}

func TestSignoffOracleCountsSwappedGate(t *testing.T) {
	_, ml, cells := fig3Setup(t)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mapper.Map(context.Background(), g, ml, mapper.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib300, _ := testlib.Build(pdk.Catalog(), testlib.Names(), 300)
	env := &signoffEnv{cells: cells, corners: []*liberty.Library{lib300}}
	sn := &signoffNetlist{signoffCircuit{"int2float", true, true}, g, nl}
	check, err := env.signoff(context.Background(), sn, lib300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatalf("clean netlist fails its oracle: %v", err)
	}
	corruptGate(t, nl, cells)
	check, err = env.signoff(context.Background(), sn, lib300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(); err == nil || !strings.Contains(err.Error(), "cec") {
		t.Errorf("netlist with a swapped gate: oracle says %v, want a cec failure", err)
	}
}
