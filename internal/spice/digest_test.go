package spice_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/spice"
)

// digestVdd is the supply of every digest testbench (charlib's Vdd).
const digestVdd = 0.7

// digestBench builds a characterization-style testbench for one PDK cell:
// the supply, one source per input in cell order (stim gives its waveform),
// a load capacitor on every output, then the cell.
func digestBench(t *testing.T, name string, temp float64, kind spice.SolverKind, stim func(pin string) spice.SourceFn, load float64) (*spice.Circuit, *pdk.Cell) {
	t.Helper()
	cell := pdk.FindCell(pdk.Catalog(), name)
	if cell == nil {
		t.Fatalf("cell %s not in catalog", name)
	}
	c := spice.New(temp)
	c.Solver = kind
	vdd := c.Node("vdd")
	c.AddVSource(vdd, spice.Ground, spice.DC(digestVdd))
	pins := map[string]spice.NodeID{}
	for _, p := range cell.Inputs {
		pins[p] = c.Node("in_" + p)
		c.AddVSource(pins[p], spice.Ground, stim(p))
	}
	for _, o := range cell.Outputs {
		pins[o] = c.Node("out_" + o)
		c.AddCapacitor(pins[o], spice.Ground, load)
	}
	if err := cell.Build(c, "dut", pins, vdd); err != nil {
		t.Fatal(err)
	}
	return c, cell
}

// digester hashes solution vectors and Newton work counts bit for bit.
type digester struct {
	h hash.Hash
}

func (d *digester) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digester) int(v int64) { d.float(float64(v)) }

// waveform hashes every sample: its time and every unknown (node voltages,
// then source branch currents).
func (d *digester) waveform(c *spice.Circuit, wf *spice.Waveform) {
	d.int(int64(len(wf.Time)))
	cols := make([][]float64, 0, spice.SystemSize(c))
	for i := 0; i < c.NumNodes(); i++ {
		cols = append(cols, wf.V(c.NodeName(spice.NodeID(i))))
	}
	for k := 0; k < spice.SystemSize(c)-c.NumNodes(); k++ {
		cols = append(cols, wf.BranchCurrent(k))
	}
	for i, tm := range wf.Time {
		d.float(tm)
		for _, col := range cols {
			d.float(col[i])
		}
	}
}

// newtonCounts reads the registry's Newton solve, iteration and repivot
// counters.
func newtonCounts() [3]int64 {
	return [3]int64{
		obs.C("spice.newton.solves").Value(),
		obs.C("spice.newton.iterations").Value(),
		obs.C("spice.solver.repivots").Value(),
	}
}

// transientDigests runs every digest case at 300 K and 10 K and returns
// "<case> <temp> <sha256>" lines in a fixed order. Each line hashes the
// bits of every sample of the case's runs and the Newton solves,
// iterations and repivots each run took. A non-nil check is called with
// every transient run's circuit and waveform.
func transientDigests(t *testing.T, check func(c *spice.Circuit, wf *spice.Waveform)) []string {
	if !obs.MetricsEnabled() {
		obs.EnableMetrics()
		defer obs.DisableMetrics()
	}
	var lines []string
	for _, temp := range []float64{300, 10} {
		emit := func(name string, run func(d *digester)) {
			d := &digester{h: sha256.New()}
			run(d)
			lines = append(lines, fmt.Sprintf("%s %gK %s", name, temp, hex.EncodeToString(d.h.Sum(nil))))
		}
		// counted runs one analysis and hashes the Newton work it took.
		counted := func(d *digester, analysis func()) {
			before := newtonCounts()
			analysis()
			after := newtonCounts()
			for i := range after {
				d.int(after[i] - before[i])
			}
		}
		transient := func(d *digester, c *spice.Circuit, guess []float64, tstop, dt float64, settle *spice.Settle) *spice.Waveform {
			var wf *spice.Waveform
			counted(d, func() {
				var err error
				if wf, err = c.TransientFrom(guess, tstop, dt, settle); err != nil {
					t.Fatalf("%g K: %v", temp, err)
				}
			})
			d.waveform(c, wf)
			if check != nil {
				check(c, wf)
			}
			return wf
		}
		ramp := func(t0, slew float64, rising bool) spice.SourceFn {
			v0, v1 := 0.0, digestVdd
			if !rising {
				v0, v1 = v1, v0
			}
			return spice.PWL([2]float64{0, v0}, [2]float64{t0, v0}, [2]float64{t0 + slew, v1})
		}

		// INV on the dense backend: one rising and one falling input.
		emit("inv-dense", func(d *digester) {
			for _, rising := range []bool{true, false} {
				c, _ := digestBench(t, "INVx1", temp, spice.SolverDense, func(string) spice.SourceFn {
					return ramp(20e-12, 20e-12, rising)
				}, 1.6e-15)
				transient(d, c, nil, 290e-12, 290e-12/600, nil)
			}
		})

		// AOI22 on the sparse backend, sensitized through A (B high, C and
		// D low): a fixed-grid rise and fall, then a coasted rise
		// warm-started from the first rise's operating point at a larger
		// load, as a characterization row does.
		aoi := func(rising bool, load float64) *spice.Circuit {
			c, _ := digestBench(t, "AOI22x1", temp, spice.SolverSparse, func(p string) spice.SourceFn {
				switch p {
				case "A":
					return ramp(20e-12, 20e-12, rising)
				case "B":
					return spice.DC(digestVdd)
				}
				return spice.DC(0)
			}, load)
			return c
		}
		const aoiStop = 290e-12
		emit("aoi22-sparse", func(d *digester) {
			rise := transient(d, aoi(true, 1.6e-15), nil, aoiStop, aoiStop/600, nil)
			transient(d, aoi(false, 1.6e-15), nil, aoiStop, aoiStop/600, nil)
			c := aoi(true, 6.4e-15)
			out, ok := c.LookupNode("out_Y")
			if !ok {
				t.Fatal("AOI22 testbench has no out_Y")
			}
			settle := &spice.Settle{Quiet: 40e-12, Node: out, Target: 0, Band: 0.05 * digestVdd}
			wf := transient(d, c, rise.InitialOp(), aoiStop, aoiStop/600, settle)
			if len(wf.Time) >= 601 {
				t.Errorf("%g K: the AOI22 rise did not coast (%d samples)", temp, len(wf.Time))
			}
		})

		// One DFF CLK->Q point: charlib's three-edge capture sequence at a
		// 20 ps slew, D rising before the 2nd edge and falling before the
		// 3rd.
		emit("dff-clk-q", func(d *digester) {
			const slew = 20e-12
			period := 500e-12 + 8*slew
			clk := [][2]float64{{0, 0}}
			for k := 0; k < 3; k++ {
				rise := float64(k+1) * period
				fall := rise + period/2
				clk = append(clk, [2]float64{rise, 0}, [2]float64{rise + slew, digestVdd},
					[2]float64{fall, digestVdd}, [2]float64{fall + slew, 0})
			}
			edge2, edge3 := 2*period, 3*period
			dIn := spice.PWL([2]float64{0, 0},
				[2]float64{edge2 - period/3, 0}, [2]float64{edge2 - period/3 + 10e-12, digestVdd},
				[2]float64{edge3 - period/3, digestVdd}, [2]float64{edge3 - period/3 + 10e-12, 0})
			c, _ := digestBench(t, "DFFx1", temp, spice.SolverSparse, func(p string) spice.SourceFn {
				if p == "CLK" {
					return spice.PWL(clk...)
				}
				return dIn
			}, 1.6e-15)
			tstop := 4 * period
			transient(d, c, nil, tstop, tstop/2400, nil)
		})

		// A cold operating point of the DFF from the zero guess with a
		// 20-iteration Newton budget: at 10 K the direct solve runs out and
		// the gmin ladder finishes the job.
		emit("dff-op-ladder", func(d *digester) {
			c, _ := digestBench(t, "DFFx1", temp, spice.SolverSparse, func(string) spice.SourceFn { return spice.DC(0) }, 1.6e-15)
			c.MaxIter = 20
			ladders := obs.C("spice.gmin.ladders").Value()
			var x []float64
			counted(d, func() {
				var err error
				if x, err = c.OpPoint(); err != nil {
					t.Fatalf("%g K: %v", temp, err)
				}
			})
			if temp == 10 && obs.C("spice.gmin.ladders").Value() == ladders {
				t.Errorf("10 K: the DFF operating point converged without the gmin ladder")
			}
			d.int(int64(len(x)))
			for _, v := range x {
				d.float(v)
			}
		})
	}
	return lines
}

// TestTransientDigest pins the simulator bit for bit. Liberty files print
// %.6g, so TestLibertyGolden cannot see a last-bit change in a waveform;
// this test hashes math.Float64bits of every sample of a set of
// characterization-style runs (INV on the dense backend, AOI22 on the
// sparse backend with a coasted and a warm-started transient, a DFF CLK->Q
// point, and a cold DFF operating point that walks the gmin ladder), plus
// each run's Newton solves, iterations and repivots, at 300 K and 10 K.
// The operating-point digests were recorded before the slot-bound assembly
// and the device evaluation memo, which must not change a bit of any
// result. The transient digests were re-recorded once, when each step's
// Newton solve began to start from the linear prediction of the last two
// samples: that moves every sample by Newton-tolerance noise, and the
// path-independent oracles (TestBackwardEulerResidual here, charlib's
// TestNearReference) held across it. A mismatch means the floating-point
// work changed. Never re-record them.
func TestTransientDigest(t *testing.T) {
	want := readDigest(t, filepath.Join("testdata", "transient_digest.txt"))
	got := transientDigests(t, nil)
	if len(got) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

func readDigest(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
