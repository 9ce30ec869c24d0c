// Package explain is the cross-run QoR attribution engine: where
// internal/qor's diff says *that* a metric moved, explain says *why* —
// which endpoint path, which cell and liberty arc, slew- or load-driven,
// and which power class. It consumes the provenance the baseline schema
// records (per-corner critical paths and power-by-cell-class), compares
// with qor's exact equality, and renders text/markdown/JSON attribution
// reports for cryobench.
package explain

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/qor"
)

// topArcs bounds the arcs listed per path delta (ranked by |delta|); the
// rest is folded into the path's residual.
const topArcs = 5

// Report is one attribution run: every QoR delta between two baselines,
// explained down to cells, arcs, and power classes.
type Report struct {
	BaseLabel string `json:"base_label"`
	CurLabel  string `json:"cur_label"`
	// ZeroDelta is the self-diff property: true iff no QoR delta was
	// attributed.
	ZeroDelta bool `json:"zero_delta"`
	// AttributedDeltas counts the QoR-bearing deltas explained below.
	AttributedDeltas int            `json:"attributed_deltas"`
	Circuits         []CircuitDelta `json:"circuits,omitempty"`
	// Notes records coverage caveats: missing provenance, circuits or
	// corners present on only one side.
	Notes []string `json:"notes,omitempty"`
}

// CircuitDelta groups one (circuit, scenario)'s attributed deltas.
type CircuitDelta struct {
	Key     string        `json:"key"`
	Corners []CornerDelta `json:"corners,omitempty"`
}

// CornerDelta explains one temperature corner's QoR movement.
type CornerDelta struct {
	TempK float64 `json:"temp_k"`
	// Metrics lists the corner scalars that moved beyond the epsilon.
	Metrics []MetricDelta `json:"metrics,omitempty"`
	Paths   []PathDelta   `json:"paths,omitempty"`
	Power   []PowerDelta  `json:"power,omitempty"`
	// Summary is the one-line headline ("WNS -50 ps: concentrated in
	// NAND3x2 A2 arc at 4 K, slew-driven").
	Summary string `json:"summary,omitempty"`
}

// MetricDelta is one moved corner scalar.
type MetricDelta struct {
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"cur"`
}

// Delta returns cur-base.
func (m *MetricDelta) Delta() float64 { return m.Cur - m.Base }

// Path match statuses.
const (
	PathMatched = "matched"
	PathNew     = "new"     // endpoint only in the current run
	PathRemoved = "removed" // endpoint only in the baseline
)

// PathDelta attributes one endpoint's arrival movement arc by arc.
type PathDelta struct {
	Endpoint string     `json:"endpoint"`
	Status   string     `json:"status"`
	BaseSec  float64    `json:"base_arrival_seconds,omitempty"`
	CurSec   float64    `json:"cur_arrival_seconds,omitempty"`
	DeltaSec float64    `json:"delta_seconds"`
	Arcs     []ArcDelta `json:"arcs,omitempty"`
	// ResidualSec is the arrival delta not covered by the listed arcs
	// (arcs beyond topArcs, or structural mismatch).
	ResidualSec float64 `json:"residual_seconds,omitempty"`
	// Culprit is the one-line attribution for this path.
	Culprit string `json:"culprit,omitempty"`
}

// Arc change kinds.
const (
	ArcDelayShift = "delay-shift"
	ArcCellSwap   = "cell-swap"
	ArcAdded      = "added"   // arc only on the current path (structural)
	ArcRemoved    = "removed" // arc only on the baseline path (structural)
)

// Arc delta drivers: what moved the arc's delay.
const (
	DriverCell       = "cell-driven"  // the mapped cell changed
	DriverSlew       = "slew-driven"  // the input transition degraded/improved
	DriverLoad       = "load-driven"  // the output load changed
	DriverTable      = "table-driven" // same cell/slew/load: the liberty tables moved
	DriverStructural = "structural"
)

// ArcDelta is one liberty arc's contribution to a path delta.
type ArcDelta struct {
	ToNet        string  `json:"to_net"`
	Gate         string  `json:"gate,omitempty"`
	BaseCell     string  `json:"base_cell,omitempty"`
	CurCell      string  `json:"cur_cell,omitempty"`
	Pin          string  `json:"pin,omitempty"`
	DeltaSec     float64 `json:"delta_seconds"`
	SlewDeltaSec float64 `json:"slew_delta_seconds,omitempty"`
	LoadDeltaF   float64 `json:"load_delta_f,omitempty"`
	Change       string  `json:"change"`
	Driver       string  `json:"driver"`
}

// Label renders the arc's cell identity: "NAND3x2" or "NAND3x1->NAND3x2".
func (a *ArcDelta) Label() string {
	switch {
	case a.BaseCell == a.CurCell:
		return a.CurCell
	case a.BaseCell == "":
		return a.CurCell
	case a.CurCell == "":
		return a.BaseCell
	default:
		return a.BaseCell + "->" + a.CurCell
	}
}

// PowerDelta attributes power movement to one cell class.
type PowerDelta struct {
	Cell       string  `json:"cell"`
	BaseCount  int     `json:"base_count"`
	CurCount   int     `json:"cur_count"`
	LeakageW   float64 `json:"leakage_delta_w,omitempty"`
	InternalW  float64 `json:"internal_delta_w,omitempty"`
	SwitchingW float64 `json:"switching_delta_w,omitempty"`
	// Dominant names the component carrying the largest |delta|:
	// "leakage", "internal", or "switching".
	Dominant string `json:"dominant,omitempty"`
}

// TotalW returns the class's summed power delta.
func (p *PowerDelta) TotalW() float64 { return p.LeakageW + p.InternalW + p.SwitchingW }

// Diff attributes every QoR delta between base and cur. It never fails:
// missing provenance degrades to scalar-level attribution with a Note.
func Diff(base, cur *qor.Baseline) *Report {
	r := &Report{
		BaseLabel: base.Label(),
		CurLabel:  cur.Label(),
	}
	baseByKey := map[string]*qor.Circuit{}
	for i := range base.Circuits {
		baseByKey[base.Circuits[i].Key()] = &base.Circuits[i]
	}
	seen := map[string]bool{}
	for i := range cur.Circuits {
		cc := &cur.Circuits[i]
		key := cc.Key()
		bc, ok := baseByKey[key]
		if !ok {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: only in current run (no baseline to attribute against)", key))
			r.AttributedDeltas++
			continue
		}
		seen[key] = true
		if cd := diffCircuit(bc, cc, r); cd != nil {
			r.Circuits = append(r.Circuits, *cd)
		}
	}
	for i := range base.Circuits {
		if key := base.Circuits[i].Key(); !seen[key] {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: dropped from current run", key))
			r.AttributedDeltas++
		}
	}
	r.ZeroDelta = r.AttributedDeltas == 0
	return r
}

func diffCircuit(base, cur *qor.Circuit, r *Report) *CircuitDelta {
	cd := &CircuitDelta{Key: cur.Key()}
	baseCorner := map[float64]*qor.Corner{}
	for i := range base.Corners {
		baseCorner[base.Corners[i].TempK] = &base.Corners[i]
	}
	for i := range cur.Corners {
		cc := &cur.Corners[i]
		bc, ok := baseCorner[cc.TempK]
		if !ok {
			r.Notes = append(r.Notes, fmt.Sprintf("%s @%gK: corner only in current run", cd.Key, cc.TempK))
			r.AttributedDeltas++
			continue
		}
		if corner := diffCorner(bc, cc, r); corner != nil {
			cd.Corners = append(cd.Corners, *corner)
		}
	}
	curTemps := map[float64]bool{}
	for i := range cur.Corners {
		curTemps[cur.Corners[i].TempK] = true
	}
	for i := range base.Corners {
		if t := base.Corners[i].TempK; !curTemps[t] {
			r.Notes = append(r.Notes, fmt.Sprintf("%s @%gK: corner dropped from current run", cd.Key, t))
			r.AttributedDeltas++
		}
	}
	// AIG trajectory shifts are QoR deltas too (they precede mapping).
	if base.AIGNodesOpt != cur.AIGNodesOpt || base.AIGDepthOpt != cur.AIGDepthOpt {
		r.AttributedDeltas++
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: technology-independent trajectory moved (nodes %d->%d, depth %d->%d) — upstream of mapping",
			cd.Key, base.AIGNodesOpt, cur.AIGNodesOpt, base.AIGDepthOpt, cur.AIGDepthOpt))
	}
	if len(cd.Corners) == 0 {
		return nil
	}
	return cd
}

func diffCorner(base, cur *qor.Corner, r *Report) *CornerDelta {
	out := &CornerDelta{TempK: cur.TempK}
	for _, m := range qor.CornerMetrics {
		bv, cv := m.Get(base), m.Get(cur)
		if !qor.Equal(bv, cv) {
			out.Metrics = append(out.Metrics, MetricDelta{Metric: m.Name, Base: bv, Cur: cv})
			r.AttributedDeltas++
		}
	}
	out.Paths = diffPaths(base.Paths, cur.Paths, r)
	out.Power = diffPowerClasses(base.PowerByClass, cur.PowerByClass, r)
	if len(out.Metrics) > 0 && len(base.Paths) == 0 && len(cur.Paths) == 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"@%gK: no path provenance recorded on either side; arc-level attribution unavailable (re-record with schema v%d)",
			cur.TempK, qor.SchemaVersion))
	}
	if len(out.Metrics) == 0 && len(out.Paths) == 0 && len(out.Power) == 0 {
		return nil
	}
	out.Summary = cornerSummary(out)
	return out
}

// diffPaths matches paths by endpoint and attributes arrival deltas arc by
// arc. Only endpoints whose arrival moved (or that exist on one side only)
// produce a PathDelta.
func diffPaths(base, cur []qor.PathRecord, r *Report) []PathDelta {
	baseByEp := map[string]*qor.PathRecord{}
	for i := range base {
		baseByEp[base[i].Endpoint] = &base[i]
	}
	var out []PathDelta
	seen := map[string]bool{}
	for i := range cur {
		cp := &cur[i]
		bp, ok := baseByEp[cp.Endpoint]
		if !ok {
			out = append(out, PathDelta{
				Endpoint: cp.Endpoint, Status: PathNew,
				CurSec: cp.ArrivalSec, DeltaSec: cp.ArrivalSec,
				Culprit: "endpoint entered the top-K critical set",
			})
			r.AttributedDeltas++
			continue
		}
		seen[cp.Endpoint] = true
		if qor.Equal(bp.ArrivalSec, cp.ArrivalSec) && samePathShape(bp, cp) {
			continue
		}
		pd := PathDelta{
			Endpoint: cp.Endpoint, Status: PathMatched,
			BaseSec: bp.ArrivalSec, CurSec: cp.ArrivalSec,
			DeltaSec: cp.ArrivalSec - bp.ArrivalSec,
		}
		pd.Arcs, pd.ResidualSec = diffArcs(bp, cp)
		pd.Culprit = pathCulprit(&pd)
		out = append(out, pd)
		r.AttributedDeltas++
	}
	for i := range base {
		bp := &base[i]
		if seen[bp.Endpoint] {
			continue
		}
		out = append(out, PathDelta{
			Endpoint: bp.Endpoint, Status: PathRemoved,
			BaseSec: bp.ArrivalSec, DeltaSec: -bp.ArrivalSec,
			Culprit: "endpoint left the top-K critical set",
		})
		r.AttributedDeltas++
	}
	return out
}

// samePathShape reports whether two matched paths traverse the same arcs
// with identical provenance (so a zero-arrival-delta path with a swapped
// cell still gets attributed).
func samePathShape(a, b *qor.PathRecord) bool {
	if len(a.Arcs) != len(b.Arcs) {
		return false
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			return false
		}
	}
	return true
}

// diffArcs aligns two matched paths by driven net and classifies each
// moved arc: what changed (cell swap, delay shift, structural) and what
// drove it (cell, slew, load, or the tables themselves).
func diffArcs(base, cur *qor.PathRecord) ([]ArcDelta, float64) {
	baseByNet := map[string]*qor.ArcRecord{}
	for i := range base.Arcs {
		baseByNet[base.Arcs[i].ToNet] = &base.Arcs[i]
	}
	// Input slews come from the predecessor arc's recorded SlewSec.
	baseSlewAt := pathSlews(base)
	curSlewAt := pathSlews(cur)

	var out []ArcDelta
	covered := 0.0
	for i := range cur.Arcs {
		ca := &cur.Arcs[i]
		ba, ok := baseByNet[ca.ToNet]
		if !ok {
			out = append(out, ArcDelta{
				ToNet: ca.ToNet, Gate: ca.Gate, CurCell: ca.Cell, Pin: ca.Pin,
				DeltaSec: ca.DelaySec, Change: ArcAdded, Driver: DriverStructural,
			})
			covered += ca.DelaySec
			continue
		}
		d := ca.DelaySec - ba.DelaySec
		cellSwapped := ba.Cell != ca.Cell
		if !cellSwapped && qor.Equal(ba.DelaySec, ca.DelaySec) {
			continue
		}
		ad := ArcDelta{
			ToNet: ca.ToNet, Gate: ca.Gate,
			BaseCell: ba.Cell, CurCell: ca.Cell, Pin: ca.Pin,
			DeltaSec:     d,
			SlewDeltaSec: curSlewAt[ca.FromNet] - baseSlewAt[ba.FromNet],
			LoadDeltaF:   ca.LoadF - ba.LoadF,
			Change:       ArcDelayShift,
		}
		switch {
		case cellSwapped:
			ad.Change = ArcCellSwap
			ad.Driver = DriverCell
		case !qor.Equal(baseSlewAt[ba.FromNet], curSlewAt[ca.FromNet]):
			ad.Driver = DriverSlew
		case !qor.Equal(ba.LoadF, ca.LoadF):
			ad.Driver = DriverLoad
		default:
			ad.Driver = DriverTable
		}
		covered += d
		out = append(out, ad)
	}
	for i := range base.Arcs {
		ba := &base.Arcs[i]
		if _, stillThere := findArc(cur, ba.ToNet); !stillThere {
			out = append(out, ArcDelta{
				ToNet: ba.ToNet, Gate: ba.Gate, BaseCell: ba.Cell, Pin: ba.Pin,
				DeltaSec: -ba.DelaySec, Change: ArcRemoved, Driver: DriverStructural,
			})
			covered += -ba.DelaySec
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].DeltaSec) > math.Abs(out[j].DeltaSec)
	})
	residual := (cur.ArrivalSec - base.ArrivalSec) - covered
	if len(out) > topArcs {
		for _, a := range out[topArcs:] {
			residual += a.DeltaSec
		}
		out = out[:topArcs]
	}
	if math.Abs(residual) < 1e-18 {
		residual = 0
	}
	return out, residual
}

func findArc(p *qor.PathRecord, toNet string) (*qor.ArcRecord, bool) {
	for i := range p.Arcs {
		if p.Arcs[i].ToNet == toNet {
			return &p.Arcs[i], true
		}
	}
	return nil, false
}

// pathSlews maps each net on the path to its recorded transition time, so
// an arc's input slew is the predecessor's entry.
func pathSlews(p *qor.PathRecord) map[string]float64 {
	m := make(map[string]float64, len(p.Arcs))
	for i := range p.Arcs {
		m[p.Arcs[i].ToNet] = p.Arcs[i].SlewSec
	}
	return m
}

// pathCulprit writes the one-line attribution: the dominant arc and how
// much of the path delta it carries.
func pathCulprit(pd *PathDelta) string {
	if len(pd.Arcs) == 0 {
		return "arrival moved with no per-arc delta (provenance missing or load/slew boundary shift)"
	}
	a := &pd.Arcs[0]
	where := a.Label()
	if a.Pin != "" {
		where += " " + a.Pin + "-arc"
	}
	if a.Gate != "" {
		where += " at " + a.Gate
	}
	frac := ""
	if pd.DeltaSec != 0 {
		frac = fmt.Sprintf(", %.0f%% of the path delta", 100*a.DeltaSec/pd.DeltaSec)
	}
	return fmt.Sprintf("delta concentrated in %s (%s): %+.2f ps of %+.2f ps%s",
		where, a.Driver, a.DeltaSec*1e12, pd.DeltaSec*1e12, frac)
}

// diffPowerClasses attributes power movement by cell class.
func diffPowerClasses(base, cur []qor.ClassPower, r *Report) []PowerDelta {
	baseByCell := map[string]*qor.ClassPower{}
	for i := range base {
		baseByCell[base[i].Cell] = &base[i]
	}
	var out []PowerDelta
	seen := map[string]bool{}
	for i := range cur {
		cc := &cur[i]
		bc := baseByCell[cc.Cell]
		var b qor.ClassPower
		if bc != nil {
			b = *bc
			seen[cc.Cell] = true
		}
		pd := PowerDelta{
			Cell: cc.Cell, BaseCount: b.Count, CurCount: cc.Count,
			LeakageW:   cc.LeakageW - b.LeakageW,
			InternalW:  cc.InternalW - b.InternalW,
			SwitchingW: cc.SwitchingW - b.SwitchingW,
		}
		if qor.Equal(b.LeakageW, cc.LeakageW) &&
			qor.Equal(b.InternalW, cc.InternalW) &&
			qor.Equal(b.SwitchingW, cc.SwitchingW) &&
			b.Count == cc.Count {
			continue
		}
		pd.Dominant = dominantComponent(&pd)
		out = append(out, pd)
		r.AttributedDeltas++
	}
	for i := range base {
		bc := &base[i]
		if seen[bc.Cell] {
			continue
		}
		if _, stillThere := findClass(cur, bc.Cell); stillThere {
			continue
		}
		pd := PowerDelta{
			Cell: bc.Cell, BaseCount: bc.Count, CurCount: 0,
			LeakageW:   -bc.LeakageW,
			InternalW:  -bc.InternalW,
			SwitchingW: -bc.SwitchingW,
		}
		pd.Dominant = dominantComponent(&pd)
		out = append(out, pd)
		r.AttributedDeltas++
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].TotalW()) > math.Abs(out[j].TotalW())
	})
	return out
}

func findClass(classes []qor.ClassPower, cell string) (*qor.ClassPower, bool) {
	for i := range classes {
		if classes[i].Cell == cell {
			return &classes[i], true
		}
	}
	return nil, false
}

func dominantComponent(p *PowerDelta) string {
	l, i, s := math.Abs(p.LeakageW), math.Abs(p.InternalW), math.Abs(p.SwitchingW)
	switch {
	case l >= i && l >= s:
		return "leakage"
	case s >= i:
		return "switching"
	default:
		return "internal"
	}
}

// cornerSummary writes the corner headline from the strongest evidence:
// a WNS/delay movement with its dominant path culprit, then power.
func cornerSummary(c *CornerDelta) string {
	var parts []string
	for _, m := range c.Metrics {
		switch m.Metric {
		case "wns_seconds":
			parts = append(parts, fmt.Sprintf("WNS %+.2f ps", m.Delta()*1e12))
		case "total_w":
			parts = append(parts, fmt.Sprintf("power %+.4g W", m.Delta()))
		case "area":
			parts = append(parts, fmt.Sprintf("area %+.4g", m.Delta()))
		}
	}
	head := ""
	if len(parts) > 0 {
		head = parts[0]
		for _, p := range parts[1:] {
			head += ", " + p
		}
	}
	for i := range c.Paths {
		if c.Paths[i].Status == PathMatched && len(c.Paths[i].Arcs) > 0 {
			if head != "" {
				head += ": "
			}
			head += c.Paths[i].Culprit
			break
		}
	}
	if len(c.Power) > 0 {
		p := &c.Power[0]
		if head != "" {
			head += "; "
		}
		head += fmt.Sprintf("power delta led by %s (%s, %+.4g W, count %d->%d)",
			p.Cell, p.Dominant, p.TotalW(), p.BaseCount, p.CurCount)
	}
	return head
}
