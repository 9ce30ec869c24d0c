package obs_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/charlib"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// TestCostAttribution runs real flow stages under -cost — a 7x7 SPICE
// characterization, a tracer reset as cryobench does between repetitions,
// then a synthesis, each worth ten or more 10 ms profile samples — and
// checks that go tool pprof -tags reads the profile and lists
// span paths from both stages, including the charlib.arc worker spans
// nested under charlib.cell.
func TestCostAttribution(t *testing.T) {
	obs.StopCost()
	obs.DisableTracing()
	defer func() {
		obs.StopCost()
		obs.DisableTracing()
	}()
	path := filepath.Join(t.TempDir(), "cost.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.EnableCost(f); err != nil {
		t.Fatalf("EnableCost: %v", err)
	}

	cell := pdk.FindCell(pdk.Catalog(), "INVx1")
	if cell == nil {
		t.Fatal("INVx1 not in catalog")
	}
	if _, err := charlib.CharacterizeCell(context.Background(), cell, charlib.DefaultConfig(300)); err != nil {
		t.Fatalf("CharacterizeCell: %v", err)
	}
	obs.ResetTracing()
	lib, used := testlib.Build(pdk.Catalog(), testlib.Names(), 300)
	ml, err := mapper.BuildMatchLibrary(lib, used, 6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := epfl.Build("bar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: 5}); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	obs.StopCost()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "tool", "pprof", "-tags", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -tags: %v\n%s", err, out)
	}
	var arc, syn bool
	for _, line := range strings.Split(string(out), "\n") {
		label := strings.TrimSpace(line[strings.LastIndex(line, ":")+1:])
		arc = arc || strings.HasSuffix(label, "charlib.cell/charlib.arc")
		syn = syn || strings.Contains(label, "synth.")
	}
	if !arc || !syn {
		t.Errorf("span labels missing (charlib.cell/charlib.arc %v, synth.* %v):\n%s", arc, syn, out)
	}
}
