package device

// Model is one FinFET instance: a polarity plus a model card. A Model is
// not safe for concurrent use at different temperatures (it caches
// temperature-derived quantities); SPICE circuits instantiate one Model per
// device, which keeps usage single-threaded. The cache is keyed by
// temperature alone, so P must not change after the Model's first use:
// build a new Model for a new card.
type Model struct {
	Type Type
	P    Params

	tc *tempCache
}

// NewN returns an n-FinFET with the default calibrated card and the given
// number of fins.
func NewN(nfin int) *Model {
	p := DefaultNParams()
	p.NFin = nfin
	return &Model{Type: NFET, P: p}
}

// NewP returns a p-FinFET with the default calibrated card and the given
// number of fins.
func NewP(nfin int) *Model {
	p := DefaultPParams()
	p.NFin = nfin
	return &Model{Type: PFET, P: p}
}

// idsMagnitude evaluates the source-referenced drain current for an n-type
// orientation with vgs >= 0 sweeps and vds >= 0. Polarity and terminal
// swapping are handled by Ids.
//
// The core is the EKV interpolation: normalized forward/reverse inversion
// charges i = ln^2(1+exp(v/2)) give an exponential subthreshold region with
// swing n*vt*ln(10), a quadratic saturation region, and a linear triode
// region, all continuous. Vertical-field mobility degradation (Theta),
// channel-length modulation (Lambda), DIBL, and the cryogenic leakage floor
// are layered on top. See derivs for the full equations with analytic
// partial derivatives.
func (m *Model) idsMagnitude(vgs, vds, tempK float64) float64 {
	f, _, _ := m.derivs(vgs, vds, tempK)
	return f
}

// Ids returns the signed drain current (conventional current into the drain
// terminal) for the given terminal voltages. For NFET devices vgs/vds are
// gate-source and drain-source voltages; for PFET the same arguments are
// accepted in circuit polarity (negative in normal operation) and mirrored
// internally. Source/drain symmetry is preserved: negative vds swaps the
// terminals.
func (m *Model) Ids(vgs, vds, tempK float64) float64 {
	sign := 1.0
	if m.Type == PFET {
		vgs, vds = -vgs, -vds
		sign = -1.0
	}
	if vds < 0 {
		// Swap source and drain: the "source" is the lower-potential end.
		return -sign * m.idsMagnitude(vgs-vds, -vds, tempK)
	}
	return sign * m.idsMagnitude(vgs, vds, tempK)
}

// Conductances returns the drain current along with gm = dIds/dVgs and
// gds = dIds/dVds at the given bias, using the analytic derivatives of the
// compact model with polarity and source/drain-swap chain rules applied.
func (m *Model) Conductances(vgs, vds, tempK float64) (ids, gm, gds float64) {
	s := 1.0
	if m.Type == PFET {
		vgs, vds = -vgs, -vds
		s = -1.0
	}
	if vds < 0 {
		f, fa, fb := m.derivs(vgs-vds, -vds, tempK)
		return -s * f, -fa, fa + fb
	}
	f, fg, fd := m.derivs(vgs, vds, tempK)
	return s * f, fg, fd
}

// GateCap returns the total gate capacitance of the device at the given
// temperature (intrinsic channel capacitance plus fringe/overlap), in
// farads. The characterizer and the SPICE engine use this as a bias-averaged
// Meyer capacitance split between gate-source and gate-drain.
func (m *Model) GateCap(tempK float64) float64 {
	return m.cacheFor(tempK).cgate
}

// JunctionCap returns the drain/source junction capacitance per terminal in
// farads. It is modeled as a fixed fraction of the gate capacitance, which
// is adequate for delay/energy trends.
func (m *Model) JunctionCap(tempK float64) float64 {
	return 0.6 * m.GateCap(tempK)
}

// OffCurrent returns the magnitude of the leakage current with the device
// fully off and |Vds| = vdd.
func (m *Model) OffCurrent(vdd, tempK float64) float64 {
	if m.Type == PFET {
		return -m.Ids(0, -vdd, tempK)
	}
	return m.Ids(0, vdd, tempK)
}

// OnCurrent returns the magnitude of the drive current with |Vgs| = |Vds| =
// vdd.
func (m *Model) OnCurrent(vdd, tempK float64) float64 {
	if m.Type == PFET {
		return -m.Ids(-vdd, -vdd, tempK)
	}
	return m.Ids(vdd, vdd, tempK)
}
