// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation. Each benchmark prints the series/rows the paper
// reports (via b.Log / custom metrics) while timing the regeneration
// pipeline itself. The real SPICE-characterized libraries are used when a
// cached corner exists under build/ (create with `go run ./cmd/cryochar
// -temp 300 && go run ./cmd/cryochar -temp 10`); otherwise the fast
// synthetic library keeps the benchmarks runnable anywhere.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/device"
	"repro/internal/epfl"
	"repro/internal/fit"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/measure"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

var (
	catalogOnce sync.Once
	catalog     []*pdk.Cell
)

func theCatalog() []*pdk.Cell {
	catalogOnce.Do(func() { catalog = pdk.Catalog() })
	return catalog
}

// libFor loads the cached SPICE-characterized corner when available and
// falls back to the synthetic library otherwise.
func libFor(b *testing.B, tempK float64) (*liberty.Library, []*pdk.Cell, bool) {
	b.Helper()
	cells := theCatalog()
	path := charlib.DefaultCachePath("build", tempK, len(cells))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		lib, perr := liberty.Parse(f)
		if perr == nil && len(lib.Cells) == len(cells) {
			return lib, cells, true
		}
	}
	lib, used := testlib.Build(cells, testlib.Names(), tempK)
	return lib, used, false
}

// ---------------------------------------------------------------------------
// Fig 1(b): transfer characteristics at |Vds| = 50 mV — model vs virtual
// measurements across 300 K .. 10 K, with the calibration RMS as the
// agreement metric.
// ---------------------------------------------------------------------------

func BenchmarkFig1b_TransferLowVds(b *testing.B) { benchFig1(b, 0.05) }

// Fig 1(c): same at |Vds| = 750 mV.
func BenchmarkFig1c_TransferHighVds(b *testing.B) { benchFig1(b, 0.75) }

func benchFig1(b *testing.B, vds float64) {
	for i := 0; i < b.N; i++ {
		for _, typ := range []device.Type{device.NFET, device.PFET} {
			silicon := measure.ReferenceSilicon(typ, 7)
			station := measure.NewStation(11)
			data := station.Measure(silicon, measure.PaperPlan())
			var initial *device.Model
			if typ == device.PFET {
				initial = device.NewP(1)
			} else {
				initial = device.NewN(1)
			}
			res := fit.Calibrate(initial, data, fit.AllKnobs, station.NoiseFloor)
			sub := measure.Dataset{Device: data.Device, Points: data.FilterVds(vds)}
			rms := fit.LogRMSError(res.Model, sub, station.NoiseFloor)
			if rms > 0.1 {
				b.Fatalf("%v: model/measurement agreement %.3f decades (want < 0.1)", typ, rms)
			}
			if i == 0 {
				b.Logf("Fig1 |Vds|=%gV %v: RMS agreement %.4f decades over %d points",
					vds, typ, rms, len(sub.Points))
				sign := 1.0
				if typ == device.PFET {
					sign = -1
				}
				for _, temp := range []float64{300, 77, 10} {
					line := fmt.Sprintf("  T=%3gK Ids(A) @|Vgs|=0,0.35,0.7: ", temp)
					for _, vg := range []float64{0, 0.35, 0.7} {
						line += fmt.Sprintf("%.3e ", math.Abs(res.Model.Ids(sign*vg, sign*vds, temp)))
					}
					b.Log(line)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Cryogenic device trends backing Section II: Vth up, SS band-tail limited,
// mobility up, leakage down orders of magnitude, on-current ~constant.
// ---------------------------------------------------------------------------

func BenchmarkCryoTrends(b *testing.B) {
	n := device.NewN(1)
	for i := 0; i < b.N; i++ {
		dVth := n.P.Vth(10) - n.P.Vth(300)
		ssRatio := n.P.SubthresholdSwing(300) / n.P.SubthresholdSwing(10)
		muGain := n.P.Mobility(10) / n.P.Mobility(300)
		leakDrop := n.OffCurrent(0.7, 300) / n.OffCurrent(0.7, 10)
		ionRatio := n.OnCurrent(0.7, 10) / n.OnCurrent(0.7, 300)
		if i == 0 {
			b.Logf("dVth=+%.0f mV, SS 300K/10K=%.1fx, mobility x%.2f, Ioff drop %.0fx, Ion ratio %.2f",
				dVth*1e3, ssRatio, muGain, leakDrop, ionRatio)
		}
		if dVth < 0.05 || leakDrop < 100 || ionRatio < 0.7 {
			b.Fatal("cryogenic trends out of the paper's envelope")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 2(a): library-wide propagation-delay distribution at 300 K vs 10 K.
// The paper's observation: the distributions largely overlap.
// ---------------------------------------------------------------------------

func BenchmarkFig2a_DelayDistribution(b *testing.B) {
	lib300, _, real300 := libFor(b, 300)
	lib10, _, _ := libFor(b, 10)
	for i := 0; i < b.N; i++ {
		d300 := libraryDelays(lib300)
		d10 := libraryDelays(lib10)
		m300, m10 := median(d300), median(d10)
		shift := math.Abs(m10-m300) / m300
		if i == 0 {
			b.Logf("Fig2a (%s): median cell delay %.2f ps @300K vs %.2f ps @10K (shift %.1f%%, %d cells)",
				libKind(real300), m300*1e12, m10*1e12, shift*100, len(d300))
		}
		if shift > 0.5 {
			b.Fatalf("delay distributions do not overlap: %.1f%% median shift", shift*100)
		}
	}
}

// Fig 2(b): library-wide switching-energy distribution; slightly lower at
// 10 K.
func BenchmarkFig2b_EnergyDistribution(b *testing.B) {
	lib300, _, real300 := libFor(b, 300)
	lib10, _, _ := libFor(b, 10)
	for i := 0; i < b.N; i++ {
		e300 := libraryEnergies(lib300)
		e10 := libraryEnergies(lib10)
		m300, m10 := median(e300), median(e10)
		if i == 0 {
			b.Logf("Fig2b (%s): median switching energy %.4f fJ @300K vs %.4f fJ @10K (ratio %.3f)",
				libKind(real300), m300*1e15, m10*1e15, m10/m300)
		}
		if real300 && m10 > m300*1.1 {
			b.Fatalf("10K energy (%.3g) should not exceed 300K (%.3g) by >10%%", m10, m300)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 2(c): average leakage/internal/switching contribution over EPFL
// circuits at 300 K vs 10 K. Paper: ~15% leakage at 300 K collapses to
// ~0.003% at 10 K.
// ---------------------------------------------------------------------------

func BenchmarkFig2c_PowerBreakdown(b *testing.B) {
	lib300, cells300, real := libFor(b, 300)
	lib10, cells10, _ := libFor(b, 10)
	ml300, err := mapper.BuildMatchLibrary(lib300, cells300, 6)
	if err != nil {
		b.Fatal(err)
	}
	ml10, err := mapper.BuildMatchLibrary(lib10, cells10, 6)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"ctrl", "router", "int2float", "cavlc", "i2c", "dec", "max", "bar"}
	for i := 0; i < b.N; i++ {
		var share300, share10 float64
		for _, name := range names {
			g, err := epfl.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, corner := range []struct {
				ml   *mapper.MatchLibrary
				lib  *liberty.Library
				into *float64
			}{{ml300, lib300, &share300}, {ml10, lib10, &share10}} {
				res, err := synth.Synthesize(context.Background(), g, corner.ml, synth.Options{Scenario: synth.BaselinePowerAware, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := power.Analyze(context.Background(), res.Netlist, corner.lib, power.Options{ClockPeriod: 1e-9, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				*corner.into += rep.LeakageShare()
			}
		}
		share300 /= float64(len(names))
		share10 /= float64(len(names))
		if i == 0 {
			b.Logf("Fig2c (%s): avg leakage share %.4f%% @300K vs %.6f%% @10K (paper: ~15%% vs ~0.003%%)",
				libKind(real), share300*100, share10*100)
		}
		if share10 >= share300 {
			b.Fatal("leakage share must collapse at 10K")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 3(a,b) + the Section V-C averages: per-circuit power savings and
// delay overheads of the two proposed hierarchies vs the baseline.
// ---------------------------------------------------------------------------

// fig3Circuits is the sweep used by the benchmark harness; the full-suite
// run lives in cmd/cryosynth.
var fig3Circuits = []string{
	"ctrl", "router", "cavlc", "i2c", "int2float", "dec", "max", "bar", "adder", "priority",
}

func BenchmarkFig3a_PowerSavings(b *testing.B) { benchFig3(b, true) }

func BenchmarkFig3b_DelayOverhead(b *testing.B) { benchFig3(b, false) }

func benchFig3(b *testing.B, reportPower bool) {
	lib10, cells, real := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var sumPAD, sumPDA float64
		for _, name := range fig3Circuits {
			g, err := epfl.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			cmp, err := synth.Compare(context.Background(), g, ml, lib10, synth.FlowOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var vPAD, vPDA float64
			if reportPower {
				vPAD = cmp.PowerSaving(synth.CryoPAD) * 100
				vPDA = cmp.PowerSaving(synth.CryoPDA) * 100
			} else {
				vPAD = cmp.DelayOverhead(synth.CryoPAD) * 100
				vPDA = cmp.DelayOverhead(synth.CryoPDA) * 100
			}
			sumPAD += vPAD
			sumPDA += vPDA
			if i == 0 {
				kind := "power saving"
				if !reportPower {
					kind = "delay overhead"
				}
				b.Logf("%-10s %s: p->a->d %+6.2f%%  p->d->a %+6.2f%%", name, kind, vPAD, vPDA)
			}
		}
		n := float64(len(fig3Circuits))
		if i == 0 {
			if reportPower {
				b.Logf("AVERAGE power saving (%s lib): p->a->d %+5.2f%%, p->d->a %+5.2f%% (paper: +6.47%%, +5.74%%)",
					libKind(real), sumPAD/n, sumPDA/n)
			} else {
				b.Logf("AVERAGE delay overhead (%s lib): p->a->d %+5.2f%%, p->d->a %+5.2f%% (paper: -6.21%%, -1.74%%)",
					libKind(real), sumPAD/n, sumPDA/n)
			}
		}
	}
}

// BenchmarkTable_AverageSavings regenerates the Section V-C summary numbers
// in one pass over a compact circuit set.
func BenchmarkTable_AverageSavings(b *testing.B) {
	lib10, cells, real := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"ctrl", "router", "int2float", "cavlc", "max"}
	for i := 0; i < b.N; i++ {
		var p1, p2, d1, d2 float64
		for _, name := range names {
			g, _ := epfl.Build(name)
			cmp, err := synth.Compare(context.Background(), g, ml, lib10, synth.FlowOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			p1 += cmp.PowerSaving(synth.CryoPAD)
			p2 += cmp.PowerSaving(synth.CryoPDA)
			d1 += cmp.DelayOverhead(synth.CryoPAD)
			d2 += cmp.DelayOverhead(synth.CryoPDA)
		}
		n := float64(len(names))
		if i == 0 {
			b.Logf("summary (%s lib): power %+0.2f%% / %+0.2f%%, delay %+0.2f%% / %+0.2f%% (pad/pda)",
				libKind(real), p1/n*100, p2/n*100, d1/n*100, d2/n*100)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations for the design choices called out in DESIGN.md.
// ---------------------------------------------------------------------------

// BenchmarkAblationCostOrder: the three priority lists on one circuit.
func BenchmarkAblationCostOrder(b *testing.B) {
	lib10, cells, _ := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := epfl.Build("router")
	for i := 0; i < b.N; i++ {
		for _, sc := range []synth.Scenario{synth.BaselinePowerAware, synth.CryoPAD, synth.CryoPDA} {
			res, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: sc, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := sta.Analyze(context.Background(), res.Netlist, lib10, sta.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%-9s gates=%3d area=%6.0f delay=%6.1fps", sc, res.Netlist.NumGates(), res.Netlist.Area(), tr.CriticalDelay*1e12)
			}
		}
	}
}

// BenchmarkAblationMfs: SAT don't-care stage on vs off.
func BenchmarkAblationMfs(b *testing.B) {
	lib10, cells, _ := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := epfl.Build("int2float")
	for i := 0; i < b.N; i++ {
		on, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPAD, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		off, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPAD, Seed: 1, SkipMfs: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("mfs on: %d gates / %d AIG nodes; mfs off: %d gates / %d AIG nodes",
				on.Netlist.NumGates(), on.NodesPower, off.Netlist.NumGates(), off.NodesPower)
		}
	}
}

// BenchmarkAblationChoices: structural choices on vs off.
func BenchmarkAblationChoices(b *testing.B) {
	lib10, cells, _ := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := epfl.Build("cavlc")
	for i := 0; i < b.N; i++ {
		on, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		off, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: 1, SkipChoices: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("choices on: %d gates; choices off: %d gates", on.Netlist.NumGates(), off.Netlist.NumGates())
		}
	}
}

// BenchmarkAblationActivity: random-vector simulation vs probabilistic
// propagation as the activity source.
func BenchmarkAblationActivity(b *testing.B) {
	g, _ := epfl.Build("bar")
	for i := 0; i < b.N; i++ {
		probs := g.Activities()
		_, toggles := g.RandomSim(8, 3)
		var dSum, dMax float64
		n := 0
		for v := g.NumPIs() + 1; v < g.NumVars(); v++ {
			d := math.Abs(probs[v] - toggles[v])
			dSum += d
			if d > dMax {
				dMax = d
			}
			n++
		}
		if i == 0 {
			b.Logf("activity estimators: mean |prob - sim| = %.4f, max = %.4f over %d nodes", dSum/float64(n), dMax, n)
		}
	}
}

// BenchmarkAblationCutSize: mapping cut size K.
func BenchmarkAblationCutSize(b *testing.B) {
	lib10, cells, _ := libFor(b, 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := epfl.Build("i2c")
	for i := 0; i < b.N; i++ {
		for _, k := range []int{3, 4, 5, 6} {
			nl, err := mapper.Map(context.Background(), g, ml, mapper.Options{Mode: mapper.PowerAreaDelay, K: k})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("K=%d: %d gates, area %.0f", k, nl.NumGates(), nl.Area())
			}
		}
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func libKind(real bool) string {
	if real {
		return "SPICE-characterized"
	}
	return "synthetic"
}

func libraryDelays(lib *liberty.Library) []float64 {
	var out []float64
	for _, c := range lib.Cells {
		var worst float64
		for _, p := range c.Outputs() {
			for _, tm := range p.Timings {
				s := tm.CellRise.Index1[len(tm.CellRise.Index1)/2]
				l := tm.CellRise.Index2[len(tm.CellRise.Index2)/2]
				d := tm.Delay(s, l)
				if d > worst {
					worst = d
				}
			}
		}
		if worst > 0 {
			out = append(out, worst)
		}
	}
	return out
}

func libraryEnergies(lib *liberty.Library) []float64 {
	var out []float64
	for _, c := range lib.Cells {
		var sum float64
		arcs := 0
		for _, p := range c.Outputs() {
			for _, pw := range p.Powers {
				s := pw.RisePower.Index1[len(pw.RisePower.Index1)/2]
				l := pw.RisePower.Index2[len(pw.RisePower.Index2)/2]
				sum += 0.5 * (pw.RisePower.Lookup(s, l) + pw.FallPower.Lookup(s, l))
				arcs++
			}
		}
		if arcs > 0 {
			out = append(out, sum/float64(arcs))
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
