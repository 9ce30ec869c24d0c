// Package qor is the flow's exact QoR gate: it runs the full synthesis →
// mapping → STA → power pipeline over an EPFL benchmark profile with
// repetitions, records quality of results with arc- and cell-level
// provenance into a versioned JSON baseline, and diffs runs against a
// stored baseline exactly. The seeded flow is deterministic, so any QoR
// movement is a real change. Runtime is not gated here: stage wall times
// and engine counters go to the -journal run summary (cryoobs trend), and
// timing is gated by perfbench. cmd/cryobench is the CLI.
package qor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion is the baseline file format version. Any change to the
// JSON shape (renamed/added/removed fields, changed units) must bump this;
// ReadBaseline refuses mismatched versions loudly rather than diffing
// garbage, and the golden-file test pins the serialized form.
//
// v2 added per-corner critical-path provenance (Corner.Paths) and the
// power-by-cell-class breakdown (Corner.PowerByClass) — the records
// internal/explain attributes QoR deltas with. v3 dropped the runtime
// samples (Circuit.stage_seconds, Baseline.engine): a baseline holds QoR
// only.
const SchemaVersion = 3

// VersionError is the typed schema-version mismatch ReadBaseline returns;
// callers gate on it with errors.As.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("qor: baseline schema version %d does not match this binary's version %d; re-record the baseline",
		e.Got, e.Want)
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
// exact QoR per corner.
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
}

// Baseline is one recorded benchmark run — the unit stored in
// build/qor-<timestamp>.json recordings and committed reference baselines.
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

// Key identifies a circuit record inside a baseline: "<circuit>/<scenario>".
func (c *Circuit) Key() string { return c.Name + "/" + c.Scenario }

// Label names the recording in report headers: tool:profile@created.
func (b *Baseline) Label() string {
	s := b.Tool + ":" + b.Profile
	if b.CreatedAt != "" {
		s += "@" + b.CreatedAt
	}
	return s
}

// FlatMetrics flattens the baseline's QoR into dotted scalar metrics
// ("qor.<circuit>/<scenario>@<temp>K.area", ".wns_seconds", ...), the shape
// the journal's run summary stores so cryoobs trend can glob and chart
// them next to engine counters and stage wall times. The last dotted
// component is always a CornerMetrics name or aig_nodes_opt/aig_depth_opt.
func (b *Baseline) FlatMetrics() map[string]float64 {
	out := map[string]float64{}
	for i := range b.Circuits {
		c := &b.Circuits[i]
		out["qor."+c.Key()+".aig_nodes_opt"] = float64(c.AIGNodesOpt)
		out["qor."+c.Key()+".aig_depth_opt"] = float64(c.AIGDepthOpt)
		for j := range c.Corners {
			k := &c.Corners[j]
			p := fmt.Sprintf("qor.%s@%gK.", c.Key(), k.TempK)
			for _, m := range CornerMetrics {
				out[p+m.Name] = m.Get(k)
			}
		}
	}
	return out
}
