package synth

import (
	"context"
	"testing"

	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/sta"
	"repro/internal/testlib"
)

var catalog = pdk.Catalog()

func buildML(t *testing.T, temp float64) (*mapper.MatchLibrary, *testLibHandle) {
	t.Helper()
	lib, used := testlib.Build(catalog, testlib.Names(), temp)
	ml, err := mapper.BuildMatchLibrary(lib, used, 6)
	if err != nil {
		t.Fatal(err)
	}
	return ml, &testLibHandle{lib: lib}
}

type testLibHandle struct{ lib interface{} }

func TestScenarioStrings(t *testing.T) {
	if BaselinePowerAware.String() != "baseline" ||
		CryoPAD.String() != "p->a->d" || CryoPDA.String() != "p->d->a" {
		t.Error("scenario names drifted from the paper's labels")
	}
	if CryoPAD.MapMode() != mapper.PowerAreaDelay || CryoPDA.MapMode() != mapper.PowerDelayArea {
		t.Error("scenario->mapper mode binding broken")
	}
}

func TestSynthesizeSmallCircuitsVerified(t *testing.T) {
	ml, _ := buildML(t, 300)
	for _, name := range []string{"ctrl", "int2float", "router", "cavlc", "dec"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
			res, err := Synthesize(context.Background(), g, ml, Options{Scenario: sc, Seed: 5})
			if err != nil {
				t.Fatalf("%s %v: %v", name, sc, err)
			}
			rep, err := SignoffVerify(context.Background(), g, res, cec.Options{Seed: 5})
			if err != nil {
				t.Fatalf("%s %v: signoff: %v", name, sc, err)
			}
			if !rep.OK() {
				t.Fatalf("%s %v: signoff pre≡post %v, post≡mapped %v",
					name, sc, rep.PrePost.Status, rep.PostMapped.Status)
			}
			if res.Netlist.NumGates() == 0 {
				t.Fatalf("%s %v: empty netlist", name, sc)
			}
			if err := VerifyMapped(g, res, 6, 11); err != nil {
				t.Fatalf("%s %v: mapped netlist wrong: %v", name, sc, err)
			}
		}
	}
}

func TestC2RSCompresses(t *testing.T) {
	// The paper's stage 1 exists to shrink the input AIG; on the
	// mux-heavy benchmarks it must not grow it.
	for _, name := range []string{"int2float", "priority", "i2c"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := c2rs(g, 3)
		if opt.NumNodes() > g.NumNodes() {
			t.Errorf("%s: c2rs grew the network %d -> %d", name, g.NumNodes(), opt.NumNodes())
		}
		if v := cec.Check(context.Background(), g, opt, cec.Options{}); v.Status != cec.Equal {
			t.Fatalf("%s: c2rs equivalence %v", name, v.Status)
		}
	}
}

func TestPowerStagePreservesFunction(t *testing.T) {
	g, err := epfl.Build("router")
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate must be equivalent, since any scenario may pick it.
	cands := powerCandidates(g, Options{Seed: 2})
	if len(cands) != 3 {
		t.Fatalf("%d power-stage candidates, want 3", len(cands))
	}
	for i, c := range cands {
		if v := cec.Check(context.Background(), g, c.net, cec.Options{}); v.Status != cec.Equal {
			t.Fatalf("candidate %d: power stage %v", i, v.Status)
		}
	}
}

func TestCompareProducesMetrics(t *testing.T) {
	ml, _ := buildML(t, 300)
	lib, _ := testlib.Build(catalog, testlib.Names(), 300)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), g, ml, lib, FlowOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ClockPeriod <= 0 {
		t.Fatal("clock period not set")
	}
	for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
		m := cmp.Metrics[sc]
		if m.Gates == 0 || m.Delay <= 0 || m.Power == nil || m.Power.Total() <= 0 {
			t.Errorf("scenario %v metrics incomplete: %+v", sc, m)
		}
		if m.Delay > cmp.ClockPeriod {
			t.Errorf("scenario %v delay %v exceeds the shared clock %v", sc, m.Delay, cmp.ClockPeriod)
		}
	}
	// The savings/overhead accessors are exact transforms of the metrics.
	for _, sc := range []Scenario{CryoPAD, CryoPDA} {
		s := cmp.PowerSaving(sc)
		if s <= -1 || s >= 1 {
			t.Errorf("scenario %v power saving out of range: %v", sc, s)
		}
	}
	if cmp.PowerSaving(BaselinePowerAware) != 0 {
		t.Error("baseline saving vs itself must be zero")
	}
	if cmp.DelayOverhead(BaselinePowerAware) != 0 {
		t.Error("baseline overhead vs itself must be zero")
	}
}

func TestStageBetterHierarchy(t *testing.T) {
	// power 10 vs 20, size 5 vs 1, depth 1 vs 5.
	if !stageBetter(10, 5, 1, 20, 1, 5, CryoPAD) {
		t.Error("p->a->d must pick the lower-power variant")
	}
	if stageBetter(10, 5, 1, 20, 1, 5, BaselinePowerAware) {
		t.Error("baseline must pick the smaller variant")
	}
	// Power tie: area decides for PAD, depth for PDA.
	if !stageBetter(10, 1, 9, 10.05, 5, 1, CryoPAD) {
		t.Error("p->a->d tie on power must fall to area")
	}
	if stageBetter(10, 1, 9, 10.05, 5, 1, CryoPDA) {
		t.Error("p->d->a tie on power must fall to delay")
	}
}

func TestAblationFlags(t *testing.T) {
	ml, _ := buildML(t, 300)
	g, err := epfl.Build("router")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	noMfs, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1, SkipMfs: true})
	if err != nil {
		t.Fatal(err)
	}
	noChoices, err := Synthesize(context.Background(), g, ml, Options{Scenario: CryoPAD, Seed: 1, SkipChoices: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{full, noMfs, noChoices} {
		if err := VerifyMapped(g, r, 4, 9); err != nil {
			t.Fatalf("ablation variant broke function: %v", err)
		}
	}
}

func TestResizeForPower(t *testing.T) {
	ml, _ := buildML(t, 10)
	lib, _ := testlib.Build(catalog, testlib.Names(), 10)
	// The two delay budgets the cryogenic priority lists call for: p->a->d
	// lets delay float, p->d->a protects it.
	for _, tc := range []struct {
		circuit string
		sc      Scenario
		budget  float64
	}{{"int2float", CryoPAD, 1.3}, {"router", CryoPDA, 1.03}} {
		g, err := epfl.Build(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(context.Background(), g, ml, Options{Scenario: tc.sc, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ResizeForPower(context.Background(), res.Netlist, lib, sta.Options{}, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		// Delay must respect the budget.
		if rr.DelayAfter > rr.DelayBefore*tc.budget*1.001 {
			t.Errorf("%s: sizing violated the delay budget: %v -> %v", tc.circuit, rr.DelayBefore, rr.DelayAfter)
		}
		// The resized netlist must still be functionally correct.
		if err := VerifyMapped(g, res, 4, 3); err != nil {
			t.Fatalf("%s: sizing broke the netlist: %v", tc.circuit, err)
		}
	}
}

func TestNextDrive(t *testing.T) {
	ml, _ := buildML(t, 300)
	g, err := epfl.Build("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), g, ml, Options{Scenario: BaselinePowerAware, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fams := driveFamilies(res.Netlist)
	if len(fams) == 0 {
		t.Fatal("no drive families discovered")
	}
	// Walking up then down returns to the start; the ends terminate.
	for base, fam := range fams {
		if len(fam) < 2 {
			continue
		}
		first := fam[0].Name
		up := nextDrive(fams, first, +1)
		if up == "" {
			t.Fatalf("%s: no upsize from smallest", base)
		}
		if back := nextDrive(fams, up, -1); back != first {
			t.Fatalf("%s: up+down != identity (%s -> %s -> %s)", base, first, up, back)
		}
		if nextDrive(fams, first, -1) != "" {
			t.Fatalf("%s: downsize below smallest should fail", base)
		}
		last := fam[len(fam)-1].Name
		if nextDrive(fams, last, +1) != "" {
			t.Fatalf("%s: upsize above largest should fail", base)
		}
	}
	if nextDrive(fams, "NOPEx1", 1) != "" {
		t.Error("unknown cell should have no drive neighbors")
	}
}

func TestSynthesizedNetlistsPassDRC(t *testing.T) {
	ml, _ := buildML(t, 300)
	for _, name := range []string{"ctrl", "router", "dec"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scenario{BaselinePowerAware, CryoPAD, CryoPDA} {
			res, err := Synthesize(context.Background(), g, ml, Options{Scenario: sc, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if issues := res.Netlist.Check(); len(issues) != 0 {
				t.Errorf("%s %v: mapped netlist DRC: %v", name, sc, issues)
			}
		}
	}
}
