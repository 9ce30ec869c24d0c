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

// RelDelta renders the change against the baseline magnitude as a signed
// percentage. A zero baseline has no relative change: the row reads
// "+0.00%" when the metric stayed at zero and "n/a" when it moved.
func (e *Entry) RelDelta() string {
	if e.Base == 0 {
		if e.Cur == 0 {
			return "+0.00%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", (e.Cur-e.Base)/math.Abs(e.Base)*100)
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
	Pair(base.Circuits, cur.Circuits, (*Circuit).Key, func(bc, cc *Circuit) {
		if cc == nil {
			r.Entries = append(r.Entries, Entry{
				Key: bc.Key(), Metric: "circuit",
				Verdict: Missing, Note: "dropped from run",
			})
			r.QoRRegressions++ // losing coverage is a hard failure
			return
		}
		if !cc.Deterministic {
			r.NonDeterministic = append(r.NonDeterministic, cc.Key())
		}
		if bc == nil {
			r.Entries = append(r.Entries, Entry{
				Key: cc.Key(), Metric: "circuit", Verdict: New,
				Note: "not in baseline",
			})
			return
		}
		diffCircuit(r, bc, cc)
	})
	return r
}

// Pair walks two keyed record lists the way every baseline comparison
// does. It calls visit(b, c) for each cur record c in order, b being the
// base record with the same key (the last one when the key repeats) or nil,
// and then visit(b, nil) for each base record whose key no cur record
// has, in base order.
func Pair[T any, K comparable](base, cur []T, key func(*T) K, visit func(b, c *T)) {
	byKey := make(map[K]*T, len(base))
	for i := range base {
		byKey[key(&base[i])] = &base[i]
	}
	inCur := make(map[K]bool, len(cur))
	for i := range cur {
		k := key(&cur[i])
		inCur[k] = true
		visit(byKey[k], &cur[i])
	}
	for i := range base {
		if !inCur[key(&base[i])] {
			visit(&base[i], nil)
		}
	}
}

// CornerTemp keys corners by temperature, for Pair.
func CornerTemp(c *Corner) float64 { return c.TempK }

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
	Pair(base.Corners, cur.Corners, CornerTemp, func(bc, cc *Corner) {
		switch {
		case cc == nil:
			// A corner dropped from the current run is lost coverage —
			// a hard failure, like a dropped circuit.
			r.Entries = append(r.Entries, Entry{
				Key:    fmt.Sprintf("%s @%gK", key, bc.TempK),
				Metric: "corner", Verdict: Missing,
				Note: "corner dropped from run",
			})
			r.QoRRegressions++
		case bc == nil:
			r.Entries = append(r.Entries, Entry{Key: fmt.Sprintf("%s @%gK", key, cc.TempK), Metric: "corner",
				Verdict: New, Note: "corner not in baseline"})
		default:
			ckey := fmt.Sprintf("%s @%gK", key, cc.TempK)
			for _, m := range CornerMetrics {
				r.compare(ckey, m.Name, m.Get(bc), m.Get(cc), m.HigherBad)
			}
		}
	})
}
