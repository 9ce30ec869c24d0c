package device

import (
	"math"
	"testing"
)

// The six-exponential evaluation of the compact model, kept as the oracle
// for the two-exponential kernel in derivs: every softplus and sigmoid takes
// its own math.Exp.

func refLn1exp(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

func refSigmoid(x float64) float64 {
	if x > 40 {
		return 1
	}
	if x < -40 {
		return math.Exp(x)
	}
	return 1 / (1 + math.Exp(-x))
}

func (m *Model) refDerivs(vgs, vds, tempK float64) (f, fg, fd float64) {
	p := &m.P
	c := m.cacheFor(tempK)
	n := p.N0
	nvt := n * c.vt
	vth := c.vth - p.DIBL*vds

	u := (vgs - vth) / nvt
	w := u - vds/c.vt
	lf := refLn1exp(u / 2)
	lr := refLn1exp(w / 2)
	sf := refSigmoid(u / 2)
	sr := refSigmoid(w / 2)
	F := lf*lf - lr*lr

	dudg := 1 / nvt
	dudd := p.DIBL / nvt
	dwdd := dudd - 1/c.vt

	dFdg := (lf*sf - lr*sr) * dudg
	dFdd := lf*sf*dudd - lr*sr*dwdd

	su := refSigmoid(u)
	vov := nvt * refLn1exp(u)
	D := 1 + p.Theta*vov
	K := c.ispec0 / D
	dKdg := -c.ispec0 * p.Theta * su / (D * D)
	dKdd := -c.ispec0 * p.Theta * su * p.DIBL / (D * D)

	clm := 1 + p.Lambda*vds
	th := math.Tanh(c.floorK * vds)
	floor := c.floorA * th
	dfloor := c.floorA * c.floorK * (1 - th*th)
	f = K*F*clm + floor
	fg = (dKdg*F + K*dFdg) * clm
	fd = (dKdd*F+K*dFdd)*clm + K*F*p.Lambda + dfloor
	return f, fg, fd
}

// refConductances is Conductances on top of refDerivs.
func (m *Model) refConductances(vgs, vds, tempK float64) (ids, gm, gds float64) {
	s := 1.0
	if m.Type == PFET {
		vgs, vds = -vgs, -vds
		s = -1.0
	}
	if vds < 0 {
		f, fa, fb := m.refDerivs(vgs-vds, -vds, tempK)
		return -s * f, -fa, fa + fb
	}
	f, fg, fd := m.refDerivs(vgs, vds, tempK)
	return s * f, fg, fd
}

// TestConductancesMatchReference pins the two-exponential kernel to the
// six-exponential reference: 1e-12 relative, with an absolute floor of
// 1e-12·Ion (per volt for gm and gds) where the forward and reverse charges
// cancel near vds = 0. The grid spans both polarities, both vds signs, deep
// subthreshold to full bias and 4-300 K, plus bias points on both sides of
// the softplus branch edges |u|, |w| ∈ {40, 80}.
func TestConductancesMatchReference(t *testing.T) {
	const rel = 1e-12
	for _, m := range []*Model{NewN(2), NewP(2)} {
		sign := 1.0
		if m.Type == PFET {
			sign = -1
		}
		for _, temp := range []float64{4, 10, 77, 300} {
			floor := rel * m.OnCurrent(m.P.VddRef, temp)
			check := func(vgs, vds float64) {
				ids, gm, gds := m.Conductances(vgs, vds, temp)
				rids, rgm, rgds := m.refConductances(vgs, vds, temp)
				for _, q := range []struct {
					name      string
					got, want float64
				}{{"ids", ids, rids}, {"gm", gm, rgm}, {"gds", gds, rgds}} {
					tol := rel*math.Max(math.Abs(q.got), math.Abs(q.want)) + floor
					if !(math.Abs(q.got-q.want) <= tol) {
						t.Fatalf("%v T=%gK vgs=%.17g vds=%.17g: %s = %.17g, reference %.17g",
							m.Type, temp, vgs, vds, q.name, q.got, q.want)
					}
				}
			}
			for i := -40; i <= 40; i++ {
				for j := -40; j <= 40; j++ {
					check(0.02*float64(i), 0.02*float64(j))
				}
			}
			// Branch edges, placed in the n-oriented frame (vds' >= 0) and
			// mapped back to terminal voltages for both vds signs.
			c := m.cacheFor(temp)
			nvt := m.P.N0 * c.vt
			for _, vdsO := range []float64{0.01, 0.3, 0.8} {
				vth := c.vth - m.P.DIBL*vdsO
				for _, edge := range []float64{-80, -40, 40, 80} {
					for _, nudge := range []float64{-1e-6, 0, 1e-6} {
						x := edge + nudge
						for _, vgsO := range []float64{
							vth + x*nvt,             // u = x
							vth + (x+vdsO/c.vt)*nvt, // w = x
						} {
							check(sign*vgsO, sign*vdsO)
							check(sign*(vgsO-vdsO), -sign*vdsO)
						}
					}
				}
			}
		}
	}
}

// BenchmarkConductances times one device evaluation over a 15x15 bias grid
// (N and P) at 300 K and 10 K, the two characterization corners.
func BenchmarkConductances(b *testing.B) {
	for _, temp := range []float64{300, 10} {
		b.Run(map[float64]string{300: "300K", 10: "10K"}[temp], func(b *testing.B) {
			devs := []*Model{NewN(2), NewP(2)}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := devs[i&1]
				sign := 1.0
				if d.Type == PFET {
					sign = -1
				}
				k := i >> 1
				vgs := sign * 0.05 * float64(k%15)
				vds := sign * 0.05 * float64((k/15)%15)
				ids, gm, gds := d.Conductances(vgs, vds, temp)
				sink += ids + gm + gds
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN")
			}
		})
	}
}
