package power

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/sta"
	"repro/internal/testlib"
)

var catalog = pdk.Catalog()

func demoNetlist(used []*pdk.Cell) *netlist.Netlist {
	nl := netlist.New("demo", used)
	nl.Inputs = []string{"a", "b", "c"}
	nl.AddGate("NAND2x1", []string{"a", "b"}, "n1")
	nl.AddGate("XOR2x1", []string{"n1", "c"}, "n2")
	nl.AddGate("INVx1", []string{"n2"}, "n3")
	nl.Outputs = []string{"y"}
	nl.Aliases["y"] = "n3"
	return nl
}

func TestPowerBreakdownPositive(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	rep, err := Analyze(context.Background(), demoNetlist(used), lib, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leakage <= 0 || rep.Internal <= 0 || rep.Switching <= 0 {
		t.Errorf("breakdown must be positive: %+v", rep)
	}
	if rep.Total() <= rep.Leakage {
		t.Error("total must exceed leakage alone")
	}
	if s := rep.LeakageShare(); s <= 0 || s >= 1 {
		t.Errorf("leakage share = %v", s)
	}
}

func TestCryoLeakageCollapse(t *testing.T) {
	lib300, used := testlib.Build(catalog, testlib.Names(), 300)
	lib10, _ := testlib.Build(catalog, testlib.Names(), 10)
	r300, err := Analyze(context.Background(), demoNetlist(used), lib300, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Analyze(context.Background(), demoNetlist(used), lib10, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r10.Leakage >= r300.Leakage/100 {
		t.Errorf("cryo leakage %v not << room leakage %v", r10.Leakage, r300.Leakage)
	}
	if r10.LeakageShare() >= r300.LeakageShare() {
		t.Error("leakage share must collapse at 10K")
	}
}

func TestFasterClockMoreDynamicPower(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	slow, err := Analyze(context.Background(), demoNetlist(used), lib, Options{ClockPeriod: 2e-9})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Analyze(context.Background(), demoNetlist(used), lib, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Switching <= slow.Switching || fast.Internal <= slow.Internal {
		t.Error("halving the period must double dynamic power")
	}
	if fast.Leakage != slow.Leakage {
		t.Error("leakage must not depend on clock period")
	}
}

func TestInvalidPeriodRejected(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	if _, err := Analyze(context.Background(), demoNetlist(used), lib, Options{}); err == nil {
		t.Error("zero clock period accepted")
	}
}

func TestMoreGatesMoreLeakage(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	small := demoNetlist(used)
	big := demoNetlist(used)
	big.AddGate("INVx1", []string{"n3"}, "n4")
	big.AddGate("INVx1", []string{"n4"}, "n5")
	rs, err := Analyze(context.Background(), small, lib, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Analyze(context.Background(), big, lib, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Leakage <= rs.Leakage {
		t.Error("more gates must leak more")
	}
}

func TestAttributeSumsToReport(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	nl := demoNetlist(used)
	opt := Options{ClockPeriod: 1e-9, Seed: 4}
	rep, err := Analyze(context.Background(), nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, cells, err := AnalyzeTimed(context.Background(), nl, lib, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != nl.NumGates() {
		t.Fatalf("attributed %d instances, want %d", len(cells), nl.NumGates())
	}
	var leak, internal, sw float64
	for _, c := range cells {
		leak += c.Leakage
		internal += c.Internal
		sw += c.Switching
	}
	if rel(leak, rep.Leakage) > 1e-9 {
		t.Errorf("leakage: attributed %v vs report %v", leak, rep.Leakage)
	}
	if rel(internal, rep.Internal) > 1e-9 {
		t.Errorf("internal: attributed %v vs report %v", internal, rep.Internal)
	}
	// Switching: the report also counts primary-input nets, so the
	// attributed total must be <= and close.
	if sw > rep.Switching {
		t.Errorf("attributed switching %v exceeds report %v", sw, rep.Switching)
	}
	if sw < 0.3*rep.Switching {
		t.Errorf("attributed switching %v implausibly far below report %v", sw, rep.Switching)
	}
}

// TestAnalyzeTimedReusesTiming: given the netlist's timing, AnalyzeTimed
// runs no STA of its own and returns what it returns when it times the
// netlist itself.
func TestAnalyzeTimedReusesTiming(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	nl := demoNetlist(used)
	opt := Options{ClockPeriod: 1e-9, Seed: 4}
	ctx := context.Background()
	timing, err := sta.Analyze(ctx, nl, lib, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs.EnableMetrics()
	analyses := obs.C("sta.analyses")
	before := analyses.Value()
	rep, cells, err := AnalyzeTimed(ctx, nl, lib, timing, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := analyses.Value() - before; n != 0 {
		t.Errorf("AnalyzeTimed with a timing ran %d STA analyses, want 0", n)
	}
	wantRep, wantCells, err := AnalyzeTimed(ctx, nl, lib, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := analyses.Value() - before; n != 1 {
		t.Errorf("AnalyzeTimed without a timing ran %d STA analyses, want 1", n)
	}
	if *rep != *wantRep || !slices.Equal(cells, wantCells) {
		t.Errorf("supplied timing gave %+v, its own timing %+v", rep, wantRep)
	}
}

func TestGroupByCell(t *testing.T) {
	cells := []CellPower{
		{Gate: "g1", Cell: "INVx1", Leakage: 1, Internal: 2, Switching: 3},
		{Gate: "g2", Cell: "NAND2x1", Leakage: 10, Internal: 20, Switching: 30},
		{Gate: "g3", Cell: "INVx1", Leakage: 1, Internal: 2, Switching: 3},
	}
	classes := GroupByCell(cells)
	if len(classes) != 2 {
		t.Fatalf("want 2 classes, got %+v", classes)
	}
	// Sorted by cell name.
	if classes[0].Cell != "INVx1" || classes[1].Cell != "NAND2x1" {
		t.Errorf("class order wrong: %+v", classes)
	}
	inv := classes[0]
	if inv.Count != 2 || inv.Leakage != 2 || inv.Internal != 4 || inv.Switching != 6 {
		t.Errorf("INVx1 fold wrong: %+v", inv)
	}
	if inv.Total() != 12 {
		t.Errorf("Total = %g, want 12", inv.Total())
	}
	if nand := classes[1]; nand.Count != 1 || nand.Total() != 60 {
		t.Errorf("NAND2x1 fold wrong: %+v", nand)
	}
	if got := GroupByCell(nil); len(got) != 0 {
		t.Errorf("empty input: %+v", got)
	}
}

func TestWriteTopConsumers(t *testing.T) {
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	_, cells, err := AnalyzeTimed(context.Background(), demoNetlist(used), lib, nil, Options{ClockPeriod: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	var sb stringsBuilder
	if err := WriteTopConsumers(&sb, cells, 2); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	if !containsStr(s, "inst") || !containsStr(s, "XOR2x1") {
		t.Errorf("report missing expected content:\n%s", s)
	}
	// Header + 2 rows.
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("report has %d lines, want 3", lines)
	}
}

type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func rel(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestConstantTiesSignOff runs a netlist with constant ties on a gate pin
// and on an output assign through STA, slacks, path reports and power:
// constants arrive at 0 with the input slew and never toggle.
func TestConstantTiesSignOff(t *testing.T) {
	const src = `module ties (a, y, z);
input a;
output y;
output z;
wire n1;
NAND2x1 g0 (.A(a), .B(1'b1), .Y(n1));
assign y = n1;
assign z = 1'b0;
endmodule`
	ctx := context.Background()
	lib, used := testlib.Build(catalog, testlib.Names(), 300)
	nl, err := netlist.ReadVerilog(strings.NewReader(src), used)
	if err != nil {
		t.Fatal(err)
	}
	timing, err := sta.Analyze(ctx, nl, lib, sta.Options{})
	if err != nil {
		t.Fatalf("sta.Analyze: %v", err)
	}
	if timing.CriticalDelay <= 0 {
		t.Errorf("critical delay %g, want > 0", timing.CriticalDelay)
	}
	one, _ := timing.Graph.NetIndex(netlist.Const1)
	if timing.Arrival[one] != 0 || timing.Slew[one] != 10e-12 {
		t.Errorf("1'b1 arrival %g slew %g, want 0 and the input slew", timing.Arrival[one], timing.Slew[one])
	}
	period := timing.CriticalDelay * 1.2
	slacks := timing.Slacks(period)
	if s, ok := slacks["n1"]; !ok || s <= 0 {
		t.Errorf("slack(n1) = %g, %v; want positive", s, ok)
	}
	paths := timing.TopPaths(0, period)
	if len(paths) != 2 || paths[0].Endpoint != "y" || paths[1].Endpoint != "z" {
		t.Fatalf("paths = %+v, want endpoints y then z", paths)
	}
	if z := paths[1]; z.ArrivalSec != 0 || len(z.Arcs) != 1 || z.Arcs[0].ToNet != netlist.Const0 {
		t.Errorf("constant endpoint path = %+v", z)
	}
	rep, err := Analyze(ctx, nl, lib, Options{ClockPeriod: period, Seed: 1})
	if err != nil {
		t.Fatalf("power.Analyze: %v", err)
	}
	if rep.Leakage <= 0 || rep.Internal <= 0 || rep.Switching <= 0 {
		t.Errorf("breakdown must be positive: %+v", rep)
	}
}
