package spice

import (
	"fmt"
	"math"
	"testing"
)

// coastCase is one settle-and-coast fixture: a circuit builder (called
// once per run, so both runs start from the same state), the same circuit
// with every source at its final value, its window, and the settle test of
// its "out" node.
type coastCase struct {
	name      string
	build     func() (*Circuit, int, SourceFn)
	dcFinal   func() *Circuit
	tstop, dt float64
	settle    Settle
	cv2       float64 // C·V² the supply must deliver; 0 = no such bound
}

func coastCases() []coastCase {
	rc := func(fn SourceFn) (*Circuit, int, SourceFn) {
		c := New(300)
		in, out := c.Node("in"), c.Node("out")
		br := c.AddVSource(in, Ground, fn)
		c.AddResistor(in, out, 1e3)
		c.AddCapacitor(out, Ground, 1e-12)
		return c, br, fn
	}
	cases := []coastCase{{
		name:    "rc-step",
		build:   func() (*Circuit, int, SourceFn) { return rc(PWL([2]float64{0, 0}, [2]float64{1e-12, 1})) },
		dcFinal: func() *Circuit { c, _, _ := rc(DC(1)); return c },
		tstop:   100e-9, dt: 100e-12,
		settle: Settle{Quiet: 1e-12, Target: 1, Band: 0.05},
		cv2:    1e-12,
	}}
	for _, temp := range []float64{300, 10} {
		for _, rising := range []bool{true, false} {
			v0, v1, target := 0.0, 0.7, 0.0
			if !rising {
				v0, v1, target = 0.7, 0.0, 0.7
			}
			inv := func(fn SourceFn) (*Circuit, int, SourceFn) {
				c, br, supply := buildInverter(temp, 2, 1e-15)
				c.AddVSource(c.Node("in"), Ground, fn)
				return c, br, supply
			}
			cases = append(cases, coastCase{
				name: fmt.Sprintf("inverter-%gK-in-rising=%v", temp, rising),
				build: func() (*Circuit, int, SourceFn) {
					return inv(PWL([2]float64{10e-12, v0}, [2]float64{30e-12, v1}))
				},
				dcFinal: func() *Circuit { c, _, _ := inv(DC(v1)); return c },
				tstop:   400e-12, dt: 0.5e-12,
				settle: Settle{Quiet: 30e-12, Target: target, Band: 0.035},
			})
		}
	}
	return cases
}

// run simulates a fresh copy of the fixture, coasting when coast is set.
func (tc coastCase) run(t *testing.T, coast bool) (*Waveform, float64) {
	t.Helper()
	c, br, supply := tc.build()
	var settle *Settle
	if coast {
		settle = &tc.settle
		settle.Node = c.Node("out")
	}
	wf, err := c.TransientFrom(nil, tc.tstop, tc.dt, settle)
	if err != nil {
		t.Fatal(err)
	}
	return wf, wf.SupplyEnergy(br, supply)
}

// TestTransientCoastMatchesFixedGrid pins settle-and-coast against the fixed
// grid: every sample before coasting is bit-identical, the coasted run ends
// on the DC operating point of the final source values, and its supply
// energy agrees with the fixed grid's (and with C·V² for an RC step) while
// taking fewer samples.
func TestTransientCoastMatchesFixedGrid(t *testing.T) {
	for _, tc := range coastCases() {
		t.Run(tc.name, func(t *testing.T) {
			fixed, eFixed := tc.run(t, false)
			coast, eCoast := tc.run(t, true)
			if len(coast.Time) >= len(fixed.Time) {
				t.Fatalf("coasted run took %d samples, fixed grid %d: no coasting", len(coast.Time), len(fixed.Time))
			}
			// The second coasted step is the first longer than dt.
			pre := 1
			for pre < len(coast.Time) && coast.Time[pre]-coast.Time[pre-1] < 1.5*tc.dt {
				pre++
			}
			pre -= 2 // drop the first coasted step, of length dt
			if pre < coastQuietSteps {
				t.Fatalf("coasting began at sample %d, before %d quiet steps", pre, coastQuietSteps)
			}
			// The settle test holds where coasting begins, and not one
			// sample earlier.
			held := func(k int) bool {
				for j := k - coastQuietSteps + 1; j <= k; j++ {
					for i := 0; i < coast.circuit.NumNodes(); i++ {
						if math.Abs(coast.samples[j][i]-coast.samples[j-1][i]) > coastTolV {
							return false
						}
					}
				}
				v := coast.samples[k][coast.circuit.Node("out")]
				return coast.Time[k] >= tc.settle.Quiet && math.Abs(v-tc.settle.Target) < tc.settle.Band
			}
			if !held(pre) || held(pre-1) {
				t.Fatalf("coasting began at sample %d (t=%g): settle test %v there, %v one sample earlier", pre, coast.Time[pre], held(pre), held(pre-1))
			}
			for k := 0; k <= pre; k++ {
				if coast.Time[k] != fixed.Time[k] {
					t.Fatalf("sample %d at t=%g, fixed grid at t=%g", k, coast.Time[k], fixed.Time[k])
				}
				for i, v := range coast.samples[k] {
					if v != fixed.samples[k][i] {
						t.Fatalf("sample %d (t=%g) unknown %d = %v, fixed grid %v", k, coast.Time[k], i, v, fixed.samples[k][i])
					}
				}
			}
			if end := coast.Time[len(coast.Time)-1]; end != fixed.Time[len(fixed.Time)-1] {
				t.Errorf("coasted run ends at %g, fixed grid at %g", end, fixed.Time[len(fixed.Time)-1])
			}
			dc := tc.dcFinal()
			op, err := dc.OpPoint()
			if err != nil {
				t.Fatal(err)
			}
			final := coast.samples[len(coast.samples)-1]
			for i := 0; i < dc.NumNodes(); i++ {
				if d := math.Abs(final[i] - op[i]); d > 1e-6 {
					t.Errorf("node %s ends %g V from its DC operating point", dc.names[i], d)
				}
			}
			if d := math.Abs(eCoast - eFixed); d > 1e-3*math.Abs(eFixed) {
				t.Errorf("supply energy %g J coasted, %g J on the fixed grid (%.3g%% apart)", eCoast, eFixed, 100*d/math.Abs(eFixed))
			}
			if tc.cv2 > 0 {
				if d := math.Abs(eCoast - tc.cv2); d > 0.01*tc.cv2 {
					t.Errorf("supply energy %g J coasted, C·V² = %g J", eCoast, tc.cv2)
				}
			}
		})
	}
}

// TestTransientCoastWaitsForSettle checks that the band and the source
// conditions each hold coasting back.
func TestTransientCoastWaitsForSettle(t *testing.T) {
	// A node that never reaches its band runs the full fixed grid.
	tc := coastCases()[0]
	tc.settle.Target = 2
	fixed, _ := tc.run(t, false)
	wf, _ := tc.run(t, true)
	if len(wf.Time) != len(fixed.Time) {
		t.Errorf("band never reached: %d samples, fixed grid %d", len(wf.Time), len(fixed.Time))
	}

	// A circuit settled from t = 0 keeps the fixed grid up to the first
	// step at or after Settle.Quiet, and coasts from there.
	tc = coastCases()[0]
	dcFinal := tc.dcFinal
	tc.build = func() (*Circuit, int, SourceFn) { return dcFinal(), 0, DC(1) }
	tc.settle.Quiet = 50e-9
	fixed, _ = tc.run(t, false)
	wf, _ = tc.run(t, true)
	k0 := 0
	for fixed.Time[k0] < tc.settle.Quiet {
		k0++
	}
	for k := 0; k <= k0; k++ {
		if wf.Time[k] != fixed.Time[k] {
			t.Fatalf("sample %d at t=%g, fixed grid at t=%g", k, wf.Time[k], fixed.Time[k])
		}
	}
	for i, want := range []float64{tc.dt, 2 * tc.dt, 4 * tc.dt} {
		if h := wf.Time[k0+1+i] - wf.Time[k0+i]; math.Abs(h-want) > 1e-6*tc.dt {
			t.Errorf("step %d after Settle.Quiet is %g s, want %g s", i+1, h, want)
		}
	}
}

// TestSupplyEnergyRightEndpoint pins the supply-energy rule on a hand-made
// waveform: the right-endpoint sum Σ −i(tₖ)·V(tₖ)·(tₖ − tₖ₋₁).
func TestSupplyEnergyRightEndpoint(t *testing.T) {
	c := New(300)
	c.Node("a")
	wf := &Waveform{circuit: c}
	for _, s := range [][2]float64{{0, -5}, {1, -1}, {3, -2}, {7, 4}} {
		wf.record(s[0], []float64{0, s[1]})
	}
	got := wf.SupplyEnergy(0, func(t float64) float64 { return 1 + t })
	want := 1*2*1.0 + 2*4*2.0 - 4*8*4.0
	if got != want {
		t.Errorf("SupplyEnergy = %v, want %v", got, want)
	}
}
