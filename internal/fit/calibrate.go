package fit

import (
	"math"

	"repro/internal/device"
	"repro/internal/measure"
)

// Knob identifies one tunable parameter of the compact model exposed to the
// extractor.
type Knob int

// Extraction knobs, mirroring the physics the paper's calibration targets:
// threshold and its temperature drift, band-tail critical temperature,
// transport, ideality, and DIBL.
const (
	KnobVth0 Knob = iota
	KnobVthTC
	KnobTBand
	KnobMuPh0
	KnobMuExp
	KnobN0
	KnobDIBL
	numKnobs
)

// AllKnobs lists every extraction knob.
var AllKnobs = []Knob{KnobVth0, KnobVthTC, KnobTBand, KnobMuPh0, KnobMuExp, KnobN0, KnobDIBL}

func getKnob(p *device.Params, k Knob) float64 {
	switch k {
	case KnobVth0:
		return p.Vth0
	case KnobVthTC:
		return p.VthTC
	case KnobTBand:
		return p.TBand
	case KnobMuPh0:
		return p.MuPh0
	case KnobMuExp:
		return p.MuExp
	case KnobN0:
		return p.N0
	case KnobDIBL:
		return p.DIBL
	}
	panic("fit: unknown knob")
}

func setKnob(p *device.Params, k Knob, v float64) {
	switch k {
	case KnobVth0:
		p.Vth0 = v
	case KnobVthTC:
		p.VthTC = v
	case KnobTBand:
		p.TBand = math.Abs(v)
	case KnobMuPh0:
		p.MuPh0 = math.Abs(v)
	case KnobMuExp:
		p.MuExp = math.Abs(v)
	case KnobN0:
		p.N0 = math.Max(1.0, v)
	case KnobDIBL:
		p.DIBL = math.Abs(v)
	default:
		panic("fit: unknown knob")
	}
}

// Result reports a calibration outcome.
type Result struct {
	Model     *device.Model
	RMSLog    float64 // RMS error in log10(current) over fit-significant points
	Residual  float64 // final objective value
	Evals     int     // objective evaluations performed
	KnobsUsed []Knob
}

// LogRMSError computes the RMS disagreement in log10 current between a model
// and a dataset, considering points where the measured current is above the
// noise-significance threshold (10x the instrument floor). This is the
// quantitative form of the paper's "excellent agreement" claim for Fig. 1.
func LogRMSError(m *device.Model, ds measure.Dataset, floor float64) float64 {
	var sum float64
	var n int
	for _, pt := range ds.Points {
		meas := math.Abs(pt.Ids)
		if meas < 10*floor {
			continue
		}
		sim := math.Abs(m.Ids(pt.Vgs, pt.Vds, pt.TempAct))
		if sim < floor {
			sim = floor
		}
		d := math.Log10(meas) - math.Log10(sim)
		sum += d * d
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(sum / float64(n))
}

// Calibrate extracts the given knobs of the initial model so that its I-V
// curves match the dataset, using a log-current least-squares objective
// (subthreshold decades and on-current contribute comparably, as in
// industrial extraction flows). The initial model is not modified.
func Calibrate(initial *device.Model, ds measure.Dataset, knobs []Knob, noiseFloor float64) Result {
	if len(knobs) == 0 {
		knobs = AllKnobs
	}
	evals := 0
	obj := func(x []float64) float64 {
		evals++
		p := initial.P
		for i, k := range knobs {
			setKnob(&p, k, x[i])
		}
		// A fresh Model per parameter set: a Model's temperature cache
		// does not follow changes to P.
		return LogRMSError(&device.Model{Type: initial.Type, P: p}, ds, noiseFloor)
	}
	x0 := make([]float64, len(knobs))
	for i, k := range knobs {
		p := initial.P
		x0[i] = getKnob(&p, k)
	}
	best, residual := NelderMead(obj, x0, NelderMeadOptions{MaxIter: 1500, Scale: 0.08})
	final := initial.P
	for i, k := range knobs {
		setKnob(&final, k, best[i])
	}
	m := &device.Model{Type: initial.Type, P: final}
	return Result{
		Model:     m,
		RMSLog:    LogRMSError(m, ds, noiseFloor),
		Residual:  residual,
		Evals:     evals,
		KnobsUsed: knobs,
	}
}
