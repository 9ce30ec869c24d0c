// Package forensics turns structured run journals (internal/obs JSONL
// events) into post-mortem reports: failure sites ranked by recurrence,
// and — for SPICE nonconvergence failures carrying a spice.Diagnosis
// payload — the worst-converging nodes and devices across the run.
// cmd/cryoobs is the CLI front end.
package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/spice"
)

// Load reads one or more journal files and merges them into a single event
// stream ordered by wall-clock time (run ID, then sequence number, breaks
// ties), so journals written by different binaries of the same flow
// invocation interleave chronologically.
func Load(paths ...string) ([]obs.Event, error) {
	var all []obs.Event
	for _, p := range paths {
		evs, err := obs.ReadJournalFile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, evs...)
	}
	Sort(all)
	return all, nil
}

// Sort orders events by time, then run ID, then sequence number.
func Sort(evs []obs.Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.TNs != b.TNs {
			return a.TNs < b.TNs
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		return a.Seq < b.Seq
	})
}

// FilterRun keeps only events belonging to the given run ID.
func FilterRun(evs []obs.Event, run string) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Run == run {
			out = append(out, e)
		}
	}
	return out
}

// FilterKind keeps only events of the given kind.
func FilterKind(evs []obs.Event, kind string) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// FailureSite groups recurring failures at the same site — same stage and,
// when present, same (cell, arc) — so the report leads with the most
// frequent offender rather than a flat event list.
type FailureSite struct {
	Stage string
	Cell  string
	Arc   string
	Count int
	// First is a representative event (the first occurrence).
	First obs.Event
	// Diag is the decoded SPICE diagnosis of the first occurrence, when the
	// failure carried one.
	Diag *spice.Diagnosis
}

// Label renders the site identity for humans.
func (s *FailureSite) Label() string {
	var b strings.Builder
	b.WriteString(s.Stage)
	if s.Cell != "" {
		fmt.Fprintf(&b, " cell=%s", s.Cell)
	}
	if s.Arc != "" {
		fmt.Fprintf(&b, " arc=%s", s.Arc)
	}
	return b.String()
}

// DeviceStat aggregates residual attributions for one named device across
// every diagnosis in a run.
type DeviceStat struct {
	Device      string
	Count       int
	MaxResidual float64
}

// NodeStat counts how often a node was the worst-converging row.
type NodeStat struct {
	Node  string
	Count int
}

// StallRec is one watchdog stall post-mortem: when a stage went silent,
// how deep into its work it was, and the evidence the watchdog captured
// (active span stack + goroutine dump) decoded from the event's
// obs.StallReport detail payload.
type StallRec struct {
	Time   time.Time
	Stage  string
	Msg    string
	Report *obs.StallReport // nil when the detail payload is missing/opaque
}

// ArtifactRec is one recorded artifact provenance event.
type ArtifactRec struct {
	Stage  string
	Path   string
	Bytes  string
	SHA256 string
}

// RunReport is the digested post-mortem of one run ID.
type RunReport struct {
	RunID    string
	Bin      string // producing binary, from the run.start event
	Cmdline  string
	Start    time.Time // zero when the journal lacks a run.start
	End      time.Time // zero when the process died before run.end
	Events   int
	Warnings int

	Failures  []FailureSite // ranked by recurrence (count desc)
	Stalls    []StallRec    // watchdog post-mortems, in journal order
	Devices   []DeviceStat  // worst-converging devices, by count then residual
	Nodes     []NodeStat    // worst-converging nodes, by count
	Artifacts []ArtifactRec
}

// Clean reports whether the run recorded no failures.
func (r *RunReport) Clean() bool { return len(r.Failures) == 0 }

// Truncated reports whether the journal ends without a run.end event — the
// signature of a crashed or killed process.
func (r *RunReport) Truncated() bool { return !r.Start.IsZero() && r.End.IsZero() }

// Report is the digested post-mortem of a merged event stream.
type Report struct {
	Runs []RunReport // in order of first event
}

// TotalFailures sums failure occurrences across runs.
func (r *Report) TotalFailures() int {
	n := 0
	for i := range r.Runs {
		for _, s := range r.Runs[i].Failures {
			n += s.Count
		}
	}
	return n
}

// Build digests a (sorted) event stream into a report, grouping by run ID.
func Build(evs []obs.Event) *Report {
	rep := &Report{}
	idx := map[string]int{}
	for _, e := range evs {
		i, ok := idx[e.Run]
		if !ok {
			i = len(rep.Runs)
			idx[e.Run] = i
			rep.Runs = append(rep.Runs, RunReport{RunID: e.Run})
		}
		addEvent(&rep.Runs[i], e)
	}
	for i := range rep.Runs {
		finishRun(&rep.Runs[i])
	}
	return rep
}

func addEvent(r *RunReport, e obs.Event) {
	r.Events++
	switch e.Kind {
	case obs.KindRunStart:
		r.Start = e.Time()
		r.Cmdline = e.Msg
		r.Bin = e.Attrs["bin"]
	case obs.KindRunEnd:
		r.End = e.Time()
	case obs.KindWarning:
		r.Warnings++
	case obs.KindFailure:
		addFailure(r, e)
	case obs.KindStall:
		rec := StallRec{Time: e.Time(), Stage: e.Stage, Msg: e.Msg}
		if len(e.Detail) > 0 {
			var rep obs.StallReport
			if err := json.Unmarshal(e.Detail, &rep); err == nil && rep.Task != "" {
				rec.Report = &rep
			}
		}
		r.Stalls = append(r.Stalls, rec)
	case obs.KindArtifact:
		r.Artifacts = append(r.Artifacts, ArtifactRec{
			Stage:  e.Stage,
			Path:   e.Attrs["path"],
			Bytes:  e.Attrs["bytes"],
			SHA256: e.Attrs["sha256"],
		})
	}
}

func addFailure(r *RunReport, e obs.Event) {
	cell, arc := e.Attrs["cell"], e.Attrs["arc"]
	diag := DecodeDiagnosis(&e)
	for i := range r.Failures {
		s := &r.Failures[i]
		if s.Stage == e.Stage && s.Cell == cell && s.Arc == arc {
			s.Count++
			tallyDiag(r, diag, e.Attrs)
			return
		}
	}
	r.Failures = append(r.Failures, FailureSite{
		Stage: e.Stage, Cell: cell, Arc: arc, Count: 1, First: e, Diag: diag,
	})
	tallyDiag(r, diag, e.Attrs)
}

// tallyDiag folds one failure's convergence evidence into the run-wide
// worst-device / worst-node rankings.
func tallyDiag(r *RunReport, d *spice.Diagnosis, attrs map[string]string) {
	node := attrs["worst_node"]
	if d != nil && d.WorstNode != "" {
		node = d.WorstNode
	}
	if node != "" {
		found := false
		for i := range r.Nodes {
			if r.Nodes[i].Node == node {
				r.Nodes[i].Count++
				found = true
				break
			}
		}
		if !found {
			r.Nodes = append(r.Nodes, NodeStat{Node: node, Count: 1})
		}
	}
	if d == nil {
		return
	}
	for _, dev := range d.Devices {
		found := false
		for i := range r.Devices {
			if r.Devices[i].Device == dev.Device {
				r.Devices[i].Count++
				if dev.Residual > r.Devices[i].MaxResidual {
					r.Devices[i].MaxResidual = dev.Residual
				}
				found = true
				break
			}
		}
		if !found {
			r.Devices = append(r.Devices, DeviceStat{
				Device: dev.Device, Count: 1, MaxResidual: dev.Residual,
			})
		}
	}
}

func finishRun(r *RunReport) {
	sort.SliceStable(r.Failures, func(i, j int) bool {
		return r.Failures[i].Count > r.Failures[j].Count
	})
	sort.SliceStable(r.Devices, func(i, j int) bool {
		a, b := &r.Devices[i], &r.Devices[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.MaxResidual > b.MaxResidual
	})
	sort.SliceStable(r.Nodes, func(i, j int) bool {
		return r.Nodes[i].Count > r.Nodes[j].Count
	})
}

// DecodeDiagnosis extracts the spice.Diagnosis payload from a failure
// event's detail, or nil when the event carries none (or something else).
func DecodeDiagnosis(e *obs.Event) *spice.Diagnosis {
	if len(e.Detail) == 0 {
		return nil
	}
	var d spice.Diagnosis
	if err := json.Unmarshal(e.Detail, &d); err != nil {
		return nil
	}
	if d.WorstNode == "" && d.Iters == 0 && len(d.Devices) == 0 {
		return nil
	}
	return &d
}

// WriteMarkdown renders the post-mortem report as markdown.
func (r *Report) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("# Cryo-EDA flow post-mortem\n\n")
	nev := 0
	for i := range r.Runs {
		nev += r.Runs[i].Events
	}
	bw.printf("%d run(s), %d event(s), %d failure(s).\n", len(r.Runs), nev, r.TotalFailures())
	for i := range r.Runs {
		writeRunMarkdown(bw, &r.Runs[i])
	}
	return bw.err
}

func writeRunMarkdown(bw *errWriter, r *RunReport) {
	title := r.RunID
	if r.Bin != "" {
		title += " (" + r.Bin + ")"
	}
	bw.printf("\n## Run %s\n\n", title)
	if r.Cmdline != "" {
		bw.printf("- command: `%s`\n", r.Cmdline)
	}
	if !r.Start.IsZero() {
		bw.printf("- started: %s\n", r.Start.UTC().Format(time.RFC3339Nano))
	}
	switch {
	case r.Truncated():
		bw.printf("- ended: **never** — journal is truncated (crash or kill)\n")
	case !r.End.IsZero():
		bw.printf("- ended: %s (%.3fs)\n", r.End.UTC().Format(time.RFC3339Nano),
			r.End.Sub(r.Start).Seconds())
	}
	outcome := "clean"
	if !r.Clean() {
		n := 0
		for _, s := range r.Failures {
			n += s.Count
		}
		outcome = fmt.Sprintf("**FAILED** (%d failure(s))", n)
	}
	bw.printf("- outcome: %s, %d event(s), %d warning(s)\n", outcome, r.Events, r.Warnings)

	if len(r.Failures) > 0 {
		bw.printf("\n### Failure sites (ranked by recurrence)\n\n")
		bw.printf("| # | site | count | temp (K) | slew | load | worst node | phase | message |\n")
		bw.printf("|---:|---|---:|---|---|---|---|---|---|\n")
		for i := range r.Failures {
			s := &r.Failures[i]
			a := s.First.Attrs
			node, phase := a["worst_node"], a["phase"]
			if s.Diag != nil {
				if s.Diag.WorstNode != "" {
					node = s.Diag.WorstNode
				}
				if s.Diag.Phase != "" {
					phase = s.Diag.Phase
				}
			}
			bw.printf("| %d | %s | %d | %s | %s | %s | %s | %s | %s |\n",
				i+1, s.Label(), s.Count,
				orDash(a["temp_k"]), orDash(a["slew"]), orDash(a["load"]),
				orDash(node), orDash(phase), mdEscape(truncate(s.First.Msg, 120)))
		}
	}
	if len(r.Stalls) > 0 {
		bw.printf("\n### Stalls (watchdog post-mortems)\n\n")
		for i := range r.Stalls {
			s := &r.Stalls[i]
			bw.printf("%d. **%s** at %s — %s\n", i+1, mdEscape(s.Stage),
				s.Time.UTC().Format(time.RFC3339), mdEscape(s.Msg))
			rep := s.Report
			if rep == nil {
				continue
			}
			if rep.Total > 0 {
				bw.printf("   - progress: %d/%d units when the heartbeat stopped\n", rep.Done, rep.Total)
			} else {
				bw.printf("   - progress: %d units when the heartbeat stopped\n", rep.Done)
			}
			bw.printf("   - silent %.1fs (deadline %.1fs), %d goroutines\n",
				rep.SilentSec, rep.DeadlineSec, rep.NumGoroutine)
			if len(rep.SpanStack) > 0 {
				bw.printf("   - active span stack: `%s`\n", strings.Join(rep.SpanStack, " → "))
			}
			if rep.Goroutines != "" {
				bw.printf("\n```\n%s\n```\n", truncate(strings.TrimSpace(rep.Goroutines), 4000))
			}
		}
	}
	if len(r.Devices) > 0 {
		bw.printf("\n### Worst-converging devices\n\n")
		bw.printf("| device | failures | max residual |\n|---|---:|---:|\n")
		for _, d := range r.Devices {
			bw.printf("| %s | %d | %.3e |\n", mdEscape(d.Device), d.Count, d.MaxResidual)
		}
	}
	if len(r.Nodes) > 0 {
		bw.printf("\n### Worst-converging nodes\n\n")
		bw.printf("| node | failures |\n|---|---:|\n")
		for _, n := range r.Nodes {
			bw.printf("| %s | %d |\n", mdEscape(n.Node), n.Count)
		}
	}
	if len(r.Artifacts) > 0 {
		bw.printf("\n### Artifacts\n\n")
		bw.printf("| stage | path | bytes | sha256 |\n|---|---|---:|---|\n")
		for _, a := range r.Artifacts {
			sum := a.SHA256
			if len(sum) > 12 {
				sum = sum[:12] + "…"
			}
			bw.printf("| %s | %s | %s | `%s` |\n", a.Stage, a.Path, a.Bytes, sum)
		}
	}
}

// WriteSummary renders a terse per-run text summary (the cryoobs `summary`
// subcommand).
func (r *Report) WriteSummary(w io.Writer) error {
	bw := &errWriter{w: w}
	for i := range r.Runs {
		run := &r.Runs[i]
		status := "ok"
		switch {
		case run.Truncated():
			status = "TRUNCATED"
		case !run.Clean():
			status = "FAILED"
		}
		nfail := 0
		for _, s := range run.Failures {
			nfail += s.Count
		}
		bin := run.Bin
		if bin == "" {
			bin = "?"
		}
		bw.printf("%-16s %-10s %-9s %4d events %3d failures %3d warnings",
			run.RunID, bin, status, run.Events, nfail, run.Warnings)
		if len(run.Stalls) > 0 {
			bw.printf(" %3d stalls", len(run.Stalls))
		}
		if !run.Start.IsZero() && !run.End.IsZero() {
			bw.printf("  %.3fs", run.End.Sub(run.Start).Seconds())
		}
		bw.printf("\n")
		for j := range run.Failures {
			s := &run.Failures[j]
			bw.printf("    %dx %s\n", s.Count, s.Label())
		}
	}
	return bw.err
}

// WriteEvent pretty-prints one event as a single human-oriented line (the
// cryoobs `tail` subcommand).
func WriteEvent(w io.Writer, e *obs.Event) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %-11s", e.Time().UTC().Format("15:04:05.000"), e.Run, e.Kind)
	if e.Stage != "" {
		fmt.Fprintf(&b, " [%s]", e.Stage)
	}
	if e.Msg != "" {
		fmt.Fprintf(&b, " %s", truncate(e.Msg, 160))
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, e.Attrs[k])
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func mdEscape(s string) string {
	return strings.NewReplacer("|", "\\|", "\n", " ").Replace(s)
}
