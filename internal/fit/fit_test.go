package fit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/measure"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 {
		t.Errorf("minimum at %v, want (3,-1)", x)
	}
	if v > 1e-7 {
		t.Errorf("objective %v, want ~0", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 8000})
	if math.Abs(x[0]-1) > 0.02 || math.Abs(x[1]-1) > 0.04 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", x)
	}
}

func TestQuickNelderMeadNeverWorsens(t *testing.T) {
	// The returned value must never exceed the starting objective.
	f := func(ax, bx int8) bool {
		cx := float64(ax) / 16
		cy := float64(bx) / 16
		obj := func(x []float64) float64 {
			return math.Abs(x[0]-cx) + (x[1]-cy)*(x[1]-cy)
		}
		start := []float64{1, 1}
		_, v := NelderMead(obj, start, NelderMeadOptions{MaxIter: 200})
		return v <= obj(start)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateRecoversNFET(t *testing.T) {
	testCalibrateRecovers(t, device.NFET, 7, 11)
}

func TestCalibrateRecoversPFET(t *testing.T) {
	testCalibrateRecovers(t, device.PFET, 13, 17)
}

func testCalibrateRecovers(t *testing.T, typ device.Type, siliconSeed, stationSeed int64) {
	t.Helper()
	silicon := measure.ReferenceSilicon(typ, siliconSeed)
	st := measure.NewStation(stationSeed)
	ds := st.Measure(silicon, measure.PaperPlan())

	var initial *device.Model
	if typ == device.PFET {
		initial = device.NewP(1)
	} else {
		initial = device.NewN(1)
	}
	before := LogRMSError(initial, ds, st.NoiseFloor)
	res := Calibrate(initial, ds, AllKnobs, st.NoiseFloor)
	if res.RMSLog >= before {
		t.Errorf("%v: calibration did not improve: before=%v after=%v", typ, before, res.RMSLog)
	}
	// "Excellent agreement": within a few hundredths of a decade RMS.
	if res.RMSLog > 0.08 {
		t.Errorf("%v: post-calibration RMS log error %v, want < 0.08 decades", typ, res.RMSLog)
	}
	// The extracted threshold should land near the hidden silicon's value.
	if d := math.Abs(res.Model.P.Vth0 - silicon.P.Vth0); d > 0.03 {
		t.Errorf("%v: extracted Vth0 off by %v V from silicon", typ, d)
	}
}

func TestCalibrateSubsetKnobs(t *testing.T) {
	silicon := measure.ReferenceSilicon(device.NFET, 21)
	st := measure.NewStation(22)
	ds := st.Measure(silicon, measure.PaperPlan())
	initial := device.NewN(1)
	res := Calibrate(initial, ds, []Knob{KnobVth0, KnobMuPh0}, st.NoiseFloor)
	if len(res.KnobsUsed) != 2 {
		t.Fatalf("KnobsUsed = %v", res.KnobsUsed)
	}
	// Untouched knobs must keep the initial values.
	if res.Model.P.TBand != initial.P.TBand || res.Model.P.N0 != initial.P.N0 {
		t.Error("subset calibration modified knobs outside the set")
	}
	if res.Model.P.Vth0 == initial.P.Vth0 {
		t.Error("subset calibration did not move the selected knob")
	}
}

func TestLogRMSErrorIgnoresNoiseFloor(t *testing.T) {
	m := device.NewN(1)
	ds := measure.Dataset{Points: []measure.Point{
		{Vgs: 0.7, Vds: 0.7, TempAct: 300, Ids: m.Ids(0.7, 0.7, 300)},
		{Vgs: 0.0, Vds: 0.05, TempAct: 300, Ids: 1e-14}, // below 10x floor
	}}
	if got := LogRMSError(m, ds, 1e-13); got > 1e-9 {
		t.Errorf("exact on-point with sub-floor point gave RMS %v, want ~0", got)
	}
}

func TestLogRMSErrorEmptyDataset(t *testing.T) {
	m := device.NewN(1)
	if got := LogRMSError(m, measure.Dataset{}, 1e-13); !math.IsInf(got, 1) {
		t.Errorf("empty dataset RMS = %v, want +Inf", got)
	}
}

func TestKnobRoundTrip(t *testing.T) {
	p := device.DefaultNParams()
	for _, k := range AllKnobs {
		orig := getKnob(&p, k)
		setKnob(&p, k, orig*1.25)
		if got := getKnob(&p, k); math.Abs(got-orig*1.25) > 1e-12*math.Abs(orig) {
			t.Errorf("knob %v: set/get mismatch: %v vs %v", k, got, orig*1.25)
		}
		setKnob(&p, k, orig)
	}
	// Guard rails: N0 clamps at 1, TBand/MuPh0 take magnitudes.
	setKnob(&p, KnobN0, 0.5)
	if p.N0 < 1 {
		t.Errorf("N0 clamp failed: %v", p.N0)
	}
	setKnob(&p, KnobTBand, -40)
	if p.TBand != 40 {
		t.Errorf("TBand magnitude clamp failed: %v", p.TBand)
	}
}

// TestCalibrateSharedTemperature calibrates against a dataset whose points
// all share one TempAct. A device.Model caches its temperature-derived
// quantities by temperature alone, so an objective that reused one Model
// across parameter sets would score every set with the threshold and
// mobility of the first: the objective at the returned point must equal a
// fresh model's error there, and the threshold must still be recovered.
func TestCalibrateSharedTemperature(t *testing.T) {
	silicon := measure.ReferenceSilicon(device.NFET, 7)
	st := measure.NewStation(11)
	plan := measure.PaperPlan()
	plan.Temps = []float64{300}
	ds := st.Measure(silicon, plan)
	for i := range ds.Points {
		pt := &ds.Points[i]
		pt.TempAct = 300
		pt.Ids = silicon.Ids(pt.Vgs, pt.Vds, pt.TempAct)
	}
	res := Calibrate(device.NewN(1), ds, []Knob{KnobVth0, KnobMuPh0}, st.NoiseFloor)
	if res.Residual != res.RMSLog {
		t.Errorf("objective at the returned point %v, fresh model's error there %v", res.Residual, res.RMSLog)
	}
	if d := math.Abs(res.Model.P.Vth0 - silicon.P.Vth0); d > 0.01 {
		t.Errorf("extracted Vth0 off by %v V from silicon", d)
	}
}
