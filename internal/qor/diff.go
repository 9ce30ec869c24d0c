package qor

import (
	"fmt"
	"math"
)

// relEps is the relative epsilon of the exact QoR comparison: the flow is
// deterministic, so it only absorbs floating-point representation noise.
// Integer metrics (gate counts, AIG sizes) stay far below 1/relEps, so for
// them the rule is bit-exact.
const relEps = 1e-9

// Equal is the exact QoR comparison the gate and the attribution engine
// share: bit-equal, or within relEps of the larger magnitude.
func Equal(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= relEps*scale
}

// Verdict classifies one compared metric.
type Verdict int

// Verdicts, ordered from good to bad.
const (
	OK Verdict = iota
	Improved
	New     // metric only in the current run
	Missing // metric only in the baseline
	Regressed
)

// String renders the verdict for tables.
func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Improved:
		return "improved"
	case New:
		return "new"
	case Missing:
		return "missing"
	case Regressed:
		return "REGRESSED"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Entry is one row of a diff report.
type Entry struct {
	Key     string // e.g. "ctrl/p->d->a @10K"
	Metric  string // e.g. "wns_seconds"
	Base    float64
	Cur     float64
	Verdict Verdict
	Note    string
}

// Delta returns cur-base.
func (e *Entry) Delta() float64 { return e.Cur - e.Base }

// RelDelta returns the relative change against the baseline magnitude
// (0 when the base is zero).
func (e *Entry) RelDelta() float64 {
	if e.Base == 0 {
		return 0
	}
	return (e.Cur - e.Base) / math.Abs(e.Base)
}

// Report is the outcome of diffing a run against a baseline.
type Report struct {
	BaseLabel, CurLabel string
	Entries             []Entry
	QoRRegressions      int
	NonDeterministic    []string // circuit keys whose repetitions disagreed
}

// Failed reports whether the diff should gate a merge: any QoR regression
// or nondeterminism fails.
func (r *Report) Failed() bool {
	return r.QoRRegressions > 0 || len(r.NonDeterministic) > 0
}

// CornerMetric describes one exactly compared corner QoR field: its name
// in baselines and reports, how to read it, and which direction is worse.
type CornerMetric struct {
	Name      string
	Get       func(*Corner) float64
	HigherBad bool
}

// CornerMetrics is the one table of gated corner fields, in report order;
// the diff and the attribution engine both read it.
var CornerMetrics = []CornerMetric{
	{"gates", func(c *Corner) float64 { return float64(c.Gates) }, true},
	{"area", func(c *Corner) float64 { return c.Area }, true},
	{"critical_delay_seconds", func(c *Corner) float64 { return c.CriticalSec }, true},
	{"wns_seconds", func(c *Corner) float64 { return c.WNSSec }, false},
	{"tns_seconds", func(c *Corner) float64 { return c.TNSSec }, false},
	{"leakage_w", func(c *Corner) float64 { return c.LeakageW }, true},
	{"dynamic_w", func(c *Corner) float64 { return c.DynamicW }, true},
	{"total_w", func(c *Corner) float64 { return c.TotalW }, true},
}

// Diff compares cur against base. Every QoR field is compared exactly
// (Equal); a move in the bad direction is a regression.
func Diff(base, cur *Baseline) *Report {
	r := &Report{
		BaseLabel: base.Label(),
		CurLabel:  cur.Label(),
	}
	baseByKey := map[string]*Circuit{}
	for i := range base.Circuits {
		baseByKey[base.Circuits[i].Key()] = &base.Circuits[i]
	}
	seen := map[string]bool{}
	for i := range cur.Circuits {
		cc := &cur.Circuits[i]
		if !cc.Deterministic {
			r.NonDeterministic = append(r.NonDeterministic, cc.Key())
		}
		bc, ok := baseByKey[cc.Key()]
		if !ok {
			r.Entries = append(r.Entries, Entry{
				Key: cc.Key(), Metric: "circuit", Verdict: New,
				Note: "not in baseline",
			})
			continue
		}
		seen[cc.Key()] = true
		diffCircuit(r, bc, cc)
	}
	for i := range base.Circuits {
		if !seen[base.Circuits[i].Key()] {
			r.Entries = append(r.Entries, Entry{
				Key: base.Circuits[i].Key(), Metric: "circuit",
				Verdict: Missing, Note: "dropped from run",
			})
			r.QoRRegressions++ // losing coverage is a hard failure
		}
	}
	return r
}

// compare appends one exactly compared row, counting a move in the bad
// direction as a regression.
func (r *Report) compare(key, metric string, base, cur float64, higherBad bool) {
	e := Entry{Key: key, Metric: metric, Base: base, Cur: cur, Verdict: OK}
	if !Equal(base, cur) {
		if (cur > base) == higherBad {
			e.Verdict = Regressed
			r.QoRRegressions++
		} else {
			e.Verdict = Improved
		}
	}
	r.Entries = append(r.Entries, e)
}

func diffCircuit(r *Report, base, cur *Circuit) {
	key := cur.Key()
	// AIG trajectory: smaller is better.
	r.compare(key, "aig_nodes_opt", float64(base.AIGNodesOpt), float64(cur.AIGNodesOpt), true)
	r.compare(key, "aig_depth_opt", float64(base.AIGDepthOpt), float64(cur.AIGDepthOpt), true)
	// Corners matched by temperature.
	baseCorner := map[float64]*Corner{}
	for i := range base.Corners {
		baseCorner[base.Corners[i].TempK] = &base.Corners[i]
	}
	seenCorner := map[float64]bool{}
	for i := range cur.Corners {
		cc := &cur.Corners[i]
		ckey := fmt.Sprintf("%s @%gK", key, cc.TempK)
		bc, ok := baseCorner[cc.TempK]
		if !ok {
			r.Entries = append(r.Entries, Entry{Key: ckey, Metric: "corner",
				Verdict: New, Note: "corner not in baseline"})
			continue
		}
		seenCorner[cc.TempK] = true
		for _, m := range CornerMetrics {
			r.compare(ckey, m.Name, m.Get(bc), m.Get(cc), m.HigherBad)
		}
	}
	// A corner dropped from the current run is lost coverage — a hard
	// failure, like a dropped circuit.
	for i := range base.Corners {
		bc := &base.Corners[i]
		if !seenCorner[bc.TempK] {
			r.Entries = append(r.Entries, Entry{
				Key:    fmt.Sprintf("%s @%gK", key, bc.TempK),
				Metric: "corner", Verdict: Missing,
				Note: "corner dropped from run",
			})
			r.QoRRegressions++
		}
	}
}
