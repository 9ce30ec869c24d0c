package device

import (
	"math"
)

// tempCache holds temperature-derived model quantities so that repeated
// evaluations at a fixed simulation temperature (the common case inside a
// SPICE run) avoid recomputing powers and exponentials.
type tempCache struct {
	temp   float64 // temperature this cache is valid for
	vt     float64 // band-tail-limited thermal voltage
	vth    float64 // zero-bias threshold at temp
	mu     float64 // low-field mobility at temp
	capF   float64 // gate-capacitance factor at temp
	cgate  float64 // total gate capacitance at temp (F)
	ispec0 float64 // 2*n*mu*Cox*(W/L)*vt^2 before Theta degradation
	floorA float64 // leakage-floor amplitude (A)
	floorK float64 // leakage-floor bias shape factor (1/V)
}

func (m *Model) cacheFor(tempK float64) *tempCache {
	if m.tc != nil && m.tc.temp == tempK {
		return m.tc
	}
	p := &m.P
	c := &tempCache{temp: tempK}
	c.vt = p.thermalVoltageEff(tempK)
	c.vth = p.Vth(tempK)
	c.mu = p.Mobility(tempK)
	c.capF = p.GateCapFactor(tempK)
	cox := p.CoxA * c.capF
	c.ispec0 = 2 * p.N0 * c.mu * cox * (p.Weff() / p.L) * c.vt * c.vt
	c.floorA = p.IFloor * p.Weff()
	c.floorK = 1.5 / p.VddRef
	w := p.Weff()
	c.cgate = p.CoxA*c.capF*w*p.L + p.CFr*w
	m.tc = c
	return c
}

// softplus returns ln(1+e^x) and its derivative, the logistic sigmoid
// 1/(1+e^-x), from ex = e^x, which the caller has already computed. Past
// |x| > 40 it takes the asymptotes: x and 1 above, e^x for both below (the
// tail value keeps the derivative finite). ex is not read above 40, so it
// may have overflowed there.
func softplus(x, ex float64) (l, s float64) {
	switch {
	case x > 40:
		return x, 1
	case x < -40:
		return ex, ex
	}
	return math.Log1p(ex), ex / (1 + ex)
}

// derivs evaluates the n-oriented compact model (vds >= 0) returning the
// current and its analytic partial derivatives with respect to vgs and vds.
// It costs two exponentials: e^{u/2} serves ln(1+e^{u/2}) and its sigmoid,
// and its square e^u serves ln(1+e^u) and its sigmoid; e^{w/2} serves the
// reverse charge the same way.
func (m *Model) derivs(vgs, vds, tempK float64) (f, fg, fd float64) {
	p := &m.P
	c := m.cacheFor(tempK)
	n := p.N0
	nvt := n * c.vt
	vth := c.vth - p.DIBL*vds

	u := (vgs - vth) / nvt
	w := u - vds/c.vt
	eu2 := math.Exp(u / 2)
	lf, sf := softplus(u/2, eu2)
	lr, sr := softplus(w/2, math.Exp(w/2))
	F := lf*lf - lr*lr

	dudg := 1 / nvt
	dudd := p.DIBL / nvt
	dwdd := dudd - 1/c.vt

	dFdg := (lf*sf - lr*sr) * dudg
	dFdd := lf*sf*dudd - lr*sr*dwdd

	// Vertical-field mobility degradation.
	lu, su := softplus(u, eu2*eu2)
	vov := nvt * lu
	D := 1 + p.Theta*vov
	K := c.ispec0 / D
	dKdg := -c.ispec0 * p.Theta * su / (D * D) // dvov/dvgs = su
	dKdd := -c.ispec0 * p.Theta * su * p.DIBL / (D * D)

	clm := 1 + p.Lambda*vds
	// Leakage floor: GIDL/junction/gate components that do not freeze out.
	// tanh keeps it odd in Vds (zero current at zero bias, source/drain
	// symmetric) and saturating toward full bias.
	th := math.Tanh(c.floorK * vds)
	floor := c.floorA * th
	dfloor := c.floorA * c.floorK * (1 - th*th)
	f = K*F*clm + floor
	fg = (dKdg*F + K*dFdg) * clm
	fd = (dKdd*F+K*dFdd)*clm + K*F*p.Lambda + dfloor
	return f, fg, fd
}
