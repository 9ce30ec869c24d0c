package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/qor"
)

// TrendRun labels one column of a trend table: one journaled run.
type TrendRun struct {
	Run  string    `json:"run"`
	Bin  string    `json:"bin"`
	Time time.Time `json:"time"`
}

// TrendPoint is one metric's value in one run; Present is false when the
// run did not record the metric (the table renders a dash).
type TrendPoint struct {
	Value   float64 `json:"value"`
	Present bool    `json:"present"`
}

// TrendRow is one metric's trajectory across the selected runs, with the
// noise-aware drift verdict of its latest value against its history.
type TrendRow struct {
	Metric string       `json:"metric"`
	Points []TrendPoint `json:"points"`
	// Verdict classifies the latest value against the prior runs' noise
	// band (driftVerdict): OK, Improved, Regressed — or New/Missing when
	// the metric appeared in / vanished from the latest run.
	Verdict qor.Verdict `json:"-"`
	// VerdictText is the verdict's string form for JSON consumers.
	VerdictText string `json:"verdict"`
	// DeltaPct is the relative change of the latest value against the
	// median of the prior runs (0 when undefined).
	DeltaPct float64 `json:"delta_pct"`
}

// TrendReport is a run-over-run metrics comparison rendered by
// cryoobs trend: one column per run.end summary (oldest first), one row per
// metric matching the requested globs.
type TrendReport struct {
	Runs []TrendRun `json:"runs"`
	Rows []TrendRow `json:"rows"`
}

// Drifting counts rows whose latest value escaped the noise band
// (Regressed or Improved).
func (t *TrendReport) Drifting() int {
	n := 0
	for i := range t.Rows {
		if t.Rows[i].Verdict == qor.Regressed || t.Rows[i].Verdict == qor.Improved {
			n++
		}
	}
	return n
}

// FlattenRecord flattens one run's record — the obs.RunSummary its
// run.end event carries — into dotted scalar metrics, the namespace trend
// globs select over: counters and gauges keep their registry names, each
// histogram contributes "<name>.count" and "<name>.mean", per-stage wall
// times appear as "stage.<span>", QoR metrics keep the "qor." names the
// producing tool staged, and every summary carries
// "runtime.peak_rss_bytes" / "runtime.gc_pause_total_seconds".
func FlattenRecord(evs []obs.Event, run string) (map[string]float64, error) {
	var sum *obs.RunSummary
	for i := range evs {
		e := &evs[i]
		if e.Run != run || e.Kind != obs.KindRunEnd || len(e.Detail) == 0 {
			continue
		}
		sum = &obs.RunSummary{}
		if err := json.Unmarshal(e.Detail, sum); err != nil {
			return nil, fmt.Errorf("forensics: run %s: run.end summary: %w", run, err)
		}
	}
	if sum == nil {
		return nil, fmt.Errorf("forensics: run %s has no run.end summary", run)
	}
	out := map[string]float64{}
	if m := sum.Metrics; m != nil {
		for k, v := range m.Counters {
			out[k] = float64(v)
		}
		for k, v := range m.Gauges {
			out[k] = v
		}
		for k, h := range m.Histograms {
			out[k+".count"] = float64(h.Count)
			if h.Count > 0 {
				out[k+".mean"] = h.Sum / float64(h.Count)
			}
		}
	}
	for k, v := range sum.Stages {
		out["stage."+k] = v
	}
	for k, v := range sum.QoR {
		out[k] = v
	}
	// Summary-level process health beats the sampled gauges of the same
	// name: it is present even when the run never scraped /metrics.
	if sum.PeakRSSBytes > 0 {
		out["runtime.peak_rss_bytes"] = float64(sum.PeakRSSBytes)
	}
	if sum.GCPauseTotalSec > 0 {
		out["runtime.gc_pause_total_seconds"] = sum.GCPauseTotalSec
	}
	return out, nil
}

// globMatch reports whether name matches the pattern, where '*' matches
// any run of characters (including separators — metric names mix '.', '/',
// and '@', so path.Match semantics would be a trap). Matching is anchored
// at both ends.
func globMatch(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(name, p)
		if i < 0 {
			return false
		}
		name = name[i+len(p):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

func matchesAny(globs []string, name string) bool {
	for _, g := range globs {
		if globMatch(g, name) {
			return true
		}
	}
	return false
}

// Trend digests journal events (one or more runs, e.g. forensics.Load over
// several journals) into a run-over-run report for the metrics matching
// globs: one column per run.end summary, ordered by run end time, keeping
// only the last `last` runs when last > 0. The drift verdict compares each
// metric's latest value against the noise band (driftVerdict) of its prior
// values, so identical reruns stay quiet and only real shifts are flagged.
func Trend(evs []obs.Event, globs []string, last int) (*TrendReport, error) {
	bins := map[string]string{}
	var runs []TrendRun
	for i := range evs {
		e := &evs[i]
		switch {
		case e.Kind == obs.KindRunStart:
			bins[e.Run] = e.Attrs["bin"]
		case e.Kind == obs.KindRunEnd && len(e.Detail) > 0:
			// A journal writes run.start first, so the bin is known here.
			runs = append(runs, TrendRun{Run: e.Run, Bin: bins[e.Run], Time: e.Time()})
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Time.Before(runs[j].Time) })
	if last > 0 && len(runs) > last {
		runs = runs[len(runs)-last:]
	}
	if len(globs) == 0 {
		globs = []string{"*"}
	}
	rep := &TrendReport{Runs: runs}
	flats := make([]map[string]float64, len(runs))
	names := map[string]bool{}
	for i := range runs {
		flat, err := FlattenRecord(evs, runs[i].Run)
		if err != nil {
			return nil, err
		}
		flats[i] = flat
		for k := range flat {
			if matchesAny(globs, k) {
				names[k] = true
			}
		}
	}
	ordered := make([]string, 0, len(names))
	for k := range names {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, name := range ordered {
		row := TrendRow{Metric: name, Points: make([]TrendPoint, len(runs))}
		var prior []float64
		latest, latestOK := 0.0, false
		for i := range runs {
			v, ok := flats[i][name]
			row.Points[i] = TrendPoint{Value: v, Present: ok}
			if !ok {
				continue
			}
			if i == len(runs)-1 {
				latest, latestOK = v, true
			} else {
				prior = append(prior, v)
			}
		}
		switch {
		case !latestOK:
			row.Verdict = qor.Missing
		case len(prior) == 0:
			row.Verdict = qor.New
		default:
			median, iqr := medianIQR(prior)
			row.Verdict = driftVerdict(median, iqr, latest, higherBad(name))
			if median != 0 {
				row.DeltaPct = 100 * (latest - median) / math.Abs(median)
			}
		}
		row.VerdictText = row.Verdict.String()
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// The drift rule: the latest value's shift from the history's median counts
// only when it exceeds both driftFrac of the median and driftIQRMult times
// the history's interquartile range, so neither a stable metric's small
// wobble nor a noisy metric's usual spread is flagged.
const (
	driftFrac    = 0.30
	driftIQRMult = 3.0
)

// driftVerdict classifies latest against a history summarized by its
// median and IQR under the drift rule. higherBad says which direction
// regresses.
func driftVerdict(median, iqr, latest float64, higherBad bool) qor.Verdict {
	shift := latest - median
	if math.Abs(shift) <= math.Max(driftFrac*math.Abs(median), 1e-300) ||
		math.Abs(shift) <= driftIQRMult*iqr {
		return qor.OK
	}
	if (shift > 0) == higherBad {
		return qor.Regressed
	}
	return qor.Improved
}

// higherBad reports a metric's bad direction: qor.* rows take it from the
// qor corner-metric table (slack gaining is good), everything else —
// counters, stage seconds, the AIG trajectory, process health — is lower
// is better.
func higherBad(metric string) bool {
	if !strings.HasPrefix(metric, "qor.") {
		return true
	}
	name := metric[strings.LastIndexByte(metric, '.')+1:]
	for _, m := range qor.CornerMetrics {
		if m.Name == name {
			return m.HigherBad
		}
	}
	return true
}

// medianIQR summarizes samples (order-insensitive) by their median and
// interquartile range, interpolating linearly between closest ranks. An
// empty slice yields zeros.
func medianIQR(samples []float64) (median, iqr float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		r := p * float64(len(s)-1)
		lo, hi := int(math.Floor(r)), int(math.Ceil(r))
		return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
	}
	return q(0.5), q(0.75) - q(0.25)
}

// WriteText renders the trend report as an aligned text table, one run per
// column (oldest first), drift verdicts in the last column.
func (t *TrendReport) WriteText(w io.Writer) error {
	return t.writeTable(&errWriter{w: w}, false)
}

// WriteMarkdown renders the trend report as a markdown table.
func (t *TrendReport) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	return t.writeTable(bw, true)
}

func shortRun(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}

func (t *TrendReport) writeTable(bw *errWriter, md bool) error {
	if md {
		bw.printf("| metric |")
		for _, r := range t.Runs {
			bw.printf(" %s |", shortRun(r.Run))
		}
		bw.printf(" Δ%% | verdict |\n|---|")
		for range t.Runs {
			bw.printf("---:|")
		}
		bw.printf("---:|---|\n")
	} else {
		bw.printf("%-48s", "metric")
		for _, r := range t.Runs {
			bw.printf(" %12s", shortRun(r.Run))
		}
		bw.printf(" %8s %s\n", "Δ%", "verdict")
	}
	for i := range t.Rows {
		row := &t.Rows[i]
		if md {
			bw.printf("| %s |", mdEscape(row.Metric))
		} else {
			bw.printf("%-48s", row.Metric)
		}
		for _, p := range row.Points {
			cell := "—"
			if p.Present {
				cell = fmt.Sprintf("%.6g", p.Value)
			}
			if md {
				bw.printf(" %s |", cell)
			} else {
				bw.printf(" %12s", cell)
			}
		}
		delta := ""
		if row.DeltaPct != 0 {
			delta = fmt.Sprintf("%+.1f", row.DeltaPct)
		}
		if md {
			bw.printf(" %s | %s |\n", orDash(delta), row.VerdictText)
		} else {
			bw.printf(" %8s %s\n", orDash(delta), row.VerdictText)
		}
	}
	if n := t.Drifting(); n > 0 {
		bw.printf("\n%d metric(s) drifted outside the noise band.\n", n)
	}
	return bw.err
}

// WriteJSON serializes the trend report (indented).
func (t *TrendReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
