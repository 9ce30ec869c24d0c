package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/obs"
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
		opt := c2rs(g, 3).z
		if opt.NumNodes() > g.NumNodes() {
			t.Errorf("%s: c2rs grew the network %d -> %d", name, g.NumNodes(), opt.NumNodes())
		}
		if v := cec.Check(context.Background(), g, opt, cec.Options{}); v.Status != cec.Equal {
			t.Fatalf("%s: c2rs equivalence %v", name, v.Status)
		}
	}
}

func TestPowerStagePreservesFunction(t *testing.T) {
	// Every candidate must be equivalent, since any scenario may pick it.
	// router's three variants differ, so each is built; adder's c2rs result
	// is its own Rewrite(true) and Balance(), so all three variants share
	// one built candidate, which proves the reuse path as well.
	for _, tc := range []struct {
		circuit string
		c2rs    bool
		built   int
	}{{"router", false, 3}, {"adder", true, 1}} {
		g, err := epfl.Build(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 2}
		variants := []*aig.AIG{g, g.Rewrite(true), g.Balance()}
		if tc.c2rs {
			variants = c2rs(g, 2).variants(opt)
		}
		cands, built := powerCandidates(variants, opt)
		if len(cands) != 3 {
			t.Fatalf("%s: %d power-stage candidates, want 3", tc.circuit, len(cands))
		}
		checked := map[*aig.AIG]bool{}
		for i, c := range cands {
			if checked[c.net] {
				continue
			}
			checked[c.net] = true
			if v := cec.Check(context.Background(), g, c.net, cec.Options{}); v.Status != cec.Equal {
				t.Fatalf("%s candidate %d: power stage %v", tc.circuit, i, v.Status)
			}
		}
		if len(checked) != tc.built || built != tc.built {
			t.Errorf("%s: %d distinct candidates, %d built, want %d", tc.circuit, len(checked), built, tc.built)
		}
	}
}

// TestPowerStageReusesIdenticalVariants checks that a power-stage variant
// with the structure of an earlier one shares its candidate (net and cut
// table) instead of being built again, that variants that differ are
// built apart, and that the power_stage span reports the built count.
func TestPowerStageReusesIdenticalVariants(t *testing.T) {
	tr := obs.ResetTracing()
	defer obs.DisableTracing()
	for _, tc := range []struct {
		circuit  string
		distinct int
	}{{"adder", 1}, {"mem_ctrl", 3}} {
		g, err := epfl.Build(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{201, 202} {
			if tc.distinct == 1 {
				if step1 := c2rs(g, seed).z; !step1.SameStructure(step1.Balance()) {
					t.Fatalf("%s seed %d: c2rs result is not a fixed point of Balance", tc.circuit, seed)
				}
			}
			f := Prepare(context.Background(), g, Options{Seed: seed})
			if len(f.cands) != 3 {
				t.Fatalf("%s seed %d: %d candidates, want 3", tc.circuit, seed, len(f.cands))
			}
			nets := map[*aig.AIG]bool{}
			tables := map[*mapper.CutTable]bool{}
			for _, c := range f.cands {
				nets[c.net] = true
				tables[c.cuts] = true
			}
			if len(nets) != tc.distinct || len(tables) != tc.distinct {
				t.Errorf("%s seed %d: %d distinct nets and %d cut tables, want %d",
					tc.circuit, seed, len(nets), len(tables), tc.distinct)
			}
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		if e.Name == "synth.power_stage" {
			got = append(got, e.Args["distinct"])
		}
	}
	if want := []string{"1", "1", "3", "3"}; !slices.Equal(got, want) {
		t.Errorf("synth.power_stage distinct attributes %v, want %v", got, want)
	}
}

// TestPowerStageVariantsMatchPasses is the oracle for the variants the
// power stage takes from c2rs's last two passes: on the Fig. 3 circuits and
// five control circuits, at both flow seeds, each variant has the structure
// of its pass run afresh on the c2rs result.
func TestPowerStageVariantsMatchPasses(t *testing.T) {
	for _, name := range []string{
		"adder", "bar", "max", "multiplier", "square", "dec", "mem_ctrl",
		"ctrl", "router", "i2c", "int2float", "cavlc",
	} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{201, 202} {
			tail := c2rs(g, seed)
			got := tail.variants(Options{Seed: seed})
			want := []*aig.AIG{tail.z, tail.z.Rewrite(true), tail.z.Balance()}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d variants, want %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if !got[i].SameStructure(want[i]) {
					t.Errorf("%s seed %d: variant %d differs from its recomputed pass", name, seed, i)
				}
			}
			if only := tail.variants(Options{Seed: seed, SkipChoices: true}); len(only) != 1 || only[0] != tail.z {
				t.Errorf("%s seed %d: SkipChoices keeps %d variants, want the c2rs result alone", name, seed, len(only))
			}
		}
	}
}

// TestPrepareSkipsRebuiltPasses counts the AIG passes of one Prepare. c2rs
// runs two rewrites and three balances; the power stage adds its
// Rewrite(true) and Balance() only where the c2rs result is not a fixed
// point of c2rs's last two passes: not on dec and adder, but on mem_ctrl.
func TestPrepareSkipsRebuiltPasses(t *testing.T) {
	defer obs.DisableMetrics()
	for _, tc := range []struct {
		circuit            string
		rewrites, balances int64
	}{{"dec", 2, 3}, {"adder", 2, 3}, {"mem_ctrl", 3, 4}} {
		g, err := epfl.Build(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{201, 202} {
			obs.DisableMetrics()
			reg := obs.EnableMetrics()
			Prepare(context.Background(), g, Options{Seed: seed})
			counts := reg.CounterValues()
			if rw, bal := counts["aig.pass.rewrite.runs"], counts["aig.pass.balance.runs"]; rw != tc.rewrites || bal != tc.balances {
				t.Errorf("%s seed %d: %d rewrites and %d balances, want %d and %d",
					tc.circuit, seed, rw, bal, tc.rewrites, tc.balances)
			}
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
	lowPower := mapper.Cost{Power: 10, Area: 5, Delay: 1}
	small := mapper.Cost{Power: 20, Area: 1, Delay: 5}
	if !CryoPAD.Better(lowPower, small) {
		t.Error("p->a->d must pick the lower-power variant")
	}
	if BaselinePowerAware.Better(lowPower, small) {
		t.Error("baseline must pick the smaller variant")
	}
	// Power tie: area decides for PAD, depth for PDA.
	smaller := mapper.Cost{Power: 10, Area: 1, Delay: 9}
	shallower := mapper.Cost{Power: 10.05, Area: 5, Delay: 1}
	if !CryoPAD.Better(smaller, shallower) {
		t.Error("p->a->d tie on power must fall to area")
	}
	if CryoPDA.Better(smaller, shallower) {
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
