// Package qor is the flow's QoR flight recorder: it runs the full
// synthesis → mapping → STA → power pipeline over an EPFL benchmark
// profile with repetitions, records quality-of-results and runtime/engine
// metrics into a versioned JSON baseline (the BENCH_*.json trajectory
// files), and diffs runs against a stored baseline with noise-aware
// thresholds — QoR metrics compared exactly, runtime metrics against
// median ± IQR with a relative tolerance. cmd/cryobench is the CLI.
package qor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// SchemaVersion is the baseline file format version. Any change to the
// JSON shape (renamed/added/removed fields, changed units) must bump this;
// ReadBaseline refuses mismatched versions loudly rather than diffing
// garbage, and the golden-file test pins the serialized form.
//
// v2 added per-corner critical-path provenance (Corner.Paths) and the
// power-by-cell-class breakdown (Corner.PowerByClass) — the records
// internal/explain attributes QoR deltas with.
const SchemaVersion = 2

// VersionError is the typed schema-version mismatch ReadBaseline returns;
// callers gate on it with errors.As.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("qor: baseline schema version %d does not match this binary's version %d; re-record the baseline",
		e.Got, e.Want)
}

// Stat summarizes repeated noisy samples of one quantity. Median and IQR
// (interquartile range) drive the noise-aware diff; min/max/n are kept for
// the reports.
type Stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// NewStat computes the summary of samples (order-insensitive). An empty
// slice yields the zero Stat.
func NewStat(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// Linear interpolation between closest ranks.
		r := p * float64(len(s)-1)
		lo := int(math.Floor(r))
		hi := int(math.Ceil(r))
		if lo == hi {
			return s[lo]
		}
		frac := r - float64(lo)
		return s[lo] + (s[hi]-s[lo])*frac
	}
	return Stat{
		N:      len(s),
		Median: q(0.5),
		IQR:    q(0.75) - q(0.25),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// Corner is the QoR of one (circuit, scenario) at one temperature corner.
// All fields are deterministic given the seed, so the diff compares them
// exactly.
type Corner struct {
	TempK       float64 `json:"temp_k"`
	Gates       int     `json:"gates"`
	Area        float64 `json:"area"`
	CriticalSec float64 `json:"critical_delay_seconds"`
	// WNSSec/TNSSec are worst / total negative slack against the
	// baseline's reference clock (negative = violated).
	WNSSec   float64 `json:"wns_seconds"`
	TNSSec   float64 `json:"tns_seconds"`
	LeakageW float64 `json:"leakage_w"`
	DynamicW float64 `json:"dynamic_w"`
	TotalW   float64 `json:"total_w"`
	// Paths records the top-K critical endpoint paths with per-arc
	// provenance — the substrate internal/explain attributes WNS/TNS
	// deltas over.
	Paths []PathRecord `json:"paths,omitempty"`
	// PowerByClass is the compact power breakdown by library cell
	// (leakage/internal/switching per cell class).
	PowerByClass []ClassPower `json:"power_by_class,omitempty"`
}

// ArcRecord is one hop of a recorded critical path: the liberty arc that
// propagated the worst arrival onto ToNet (sta.PathArc, persisted).
type ArcRecord struct {
	FromNet string `json:"from_net,omitempty"`
	ToNet   string `json:"to_net"`
	Gate    string `json:"gate,omitempty"` // empty at the launch point
	Cell    string `json:"cell,omitempty"`
	Pin     string `json:"pin,omitempty"` // input pin FromNet enters through
	// DelaySec is the incremental arc delay; ArrivalSec the cumulative
	// arrival at ToNet; SlewSec/LoadF the operating point there.
	DelaySec   float64 `json:"delay_seconds"`
	ArrivalSec float64 `json:"arrival_seconds"`
	SlewSec    float64 `json:"slew_seconds"`
	LoadF      float64 `json:"load_f"`
}

// PathRecord is one endpoint's worst timing path, launch point first.
type PathRecord struct {
	Endpoint   string      `json:"endpoint"`
	ArrivalSec float64     `json:"arrival_seconds"`
	SlackSec   float64     `json:"slack_seconds"`
	Arcs       []ArcRecord `json:"arcs,omitempty"`
}

// ClassPower is the power attributed to all instances of one library cell.
type ClassPower struct {
	Cell       string  `json:"cell"`
	Count      int     `json:"count"`
	LeakageW   float64 `json:"leakage_w"`
	InternalW  float64 `json:"internal_w"`
	SwitchingW float64 `json:"switching_w"`
}

// Circuit records one (circuit, scenario) cell of the benchmark matrix:
// exact QoR per corner plus runtime stats across repetitions.
type Circuit struct {
	Name     string `json:"circuit"`
	Scenario string `json:"scenario"`
	// AIG trajectory through the technology-independent stages.
	AIGNodesIn  int `json:"aig_nodes_in"`
	AIGNodesOpt int `json:"aig_nodes_opt"`
	AIGDepthOpt int `json:"aig_depth_opt"`
	// Deterministic is false when repetitions disagreed on QoR — a red
	// flag on its own, surfaced by the diff.
	Deterministic bool     `json:"deterministic"`
	Corners       []Corner `json:"corners"`
	// StageSeconds holds per-repetition wall time by span name (from the
	// obs tracer), plus the synthetic "rep.wall" whole-repetition sample.
	StageSeconds map[string]Stat `json:"stage_seconds,omitempty"`
}

// Baseline is one recorded benchmark run — the unit stored in
// BENCH_<timestamp>.json files and committed reference baselines.
type Baseline struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	Profile       string `json:"profile"`
	Repeat        int    `json:"repeat"`
	Seed          int64  `json:"seed"`
	// ClockSec is the reference clock used for WNS/TNS normalization.
	ClockSec  float64 `json:"reference_clock_seconds"`
	Testlib   bool    `json:"testlib"`
	CreatedAt string  `json:"created_at,omitempty"`
	GoOSArch  string  `json:"goosarch,omitempty"`
	// Circuits is sorted by (circuit, scenario).
	Circuits []Circuit `json:"circuits"`
	// Engine holds per-repetition deltas of the obs engine counters
	// (Newton iterations, SAT conflicts, cache hits, ...), summed over the
	// whole profile per repetition.
	Engine map[string]Stat `json:"engine,omitempty"`
}

// WriteJSON serializes the baseline (indented, trailing newline).
func (b *Baseline) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile writes the baseline to path.
func (b *Baseline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBaseline parses a baseline and enforces the schema version: a
// mismatch is a hard error naming both versions, never a silent best-effort
// decode.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	b := &Baseline{}
	if err := json.NewDecoder(r).Decode(b); err != nil {
		return nil, fmt.Errorf("qor: parsing baseline: %w", err)
	}
	if b.SchemaVersion != SchemaVersion {
		return nil, &VersionError{Got: b.SchemaVersion, Want: SchemaVersion}
	}
	return b, nil
}

// ReadBaselineFile reads and validates the baseline at path.
func ReadBaselineFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := ReadBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// key identifies a circuit record inside a baseline.
func (c *Circuit) key() string { return c.Name + "/" + c.Scenario }

// FlatMetrics flattens the baseline's QoR into dotted scalar metrics
// ("qor.<circuit>/<scenario>@<temp>K.area", ".wns_seconds", ...), the shape
// the journal's run summary stores so cryoobs trend can glob and chart
// them next to engine counters and stage wall times.
func (b *Baseline) FlatMetrics() map[string]float64 {
	out := map[string]float64{}
	for i := range b.Circuits {
		c := &b.Circuits[i]
		out["qor."+c.key()+".aig_nodes_opt"] = float64(c.AIGNodesOpt)
		out["qor."+c.key()+".aig_depth_opt"] = float64(c.AIGDepthOpt)
		for j := range c.Corners {
			k := &c.Corners[j]
			p := fmt.Sprintf("qor.%s@%gK.", c.key(), k.TempK)
			out[p+"gates"] = float64(k.Gates)
			out[p+"area"] = k.Area
			out[p+"critical_delay_seconds"] = k.CriticalSec
			out[p+"wns_seconds"] = k.WNSSec
			out[p+"tns_seconds"] = k.TNSSec
			out[p+"leakage_w"] = k.LeakageW
			out[p+"dynamic_w"] = k.DynamicW
			out[p+"total_w"] = k.TotalW
		}
	}
	return out
}
