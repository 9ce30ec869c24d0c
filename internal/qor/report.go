package qor

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// sortedEntries orders rows worst-first (regressions on top), then by key
// and metric for stable output.
func (r *Report) sortedEntries() []Entry {
	es := append([]Entry(nil), r.Entries...)
	rank := func(v Verdict) int {
		switch v {
		case Regressed:
			return 0
		case Missing:
			return 1
		case New:
			return 2
		case Improved:
			return 3
		default:
			return 4
		}
	}
	sort.SliceStable(es, func(i, j int) bool {
		if a, b := rank(es[i].Verdict), rank(es[j].Verdict); a != b {
			return a < b
		}
		if es[i].Key != es[j].Key {
			return es[i].Key < es[j].Key
		}
		return es[i].Metric < es[j].Metric
	})
	return es
}

// WriteTable renders the human console report. With verbose false, rows
// whose verdict is OK are summarized rather than listed.
func (r *Report) WriteTable(w io.Writer, verbose bool) error {
	if _, err := fmt.Fprintf(w, "QoR diff: %s  vs  %s\n", r.CurLabel, r.BaseLabel); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %-28s %14s %14s %9s  %s\n",
		"target", "metric", "base", "current", "delta%", "verdict")
	ok := 0
	for _, e := range r.sortedEntries() {
		if e.Verdict == OK && !verbose {
			ok++
			continue
		}
		note := e.Note
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "%-34s %-28s %14.6g %14.6g %9s  %s%s\n",
			e.Key, e.Metric, e.Base, e.Cur, e.RelDelta(), e.Verdict, note)
	}
	if ok > 0 {
		fmt.Fprintf(w, "... and %d metrics unchanged (ok)\n", ok)
	}
	for _, k := range r.NonDeterministic {
		fmt.Fprintf(w, "WARNING: %s produced different QoR across repetitions (nondeterministic flow)\n", k)
	}
	_, err := fmt.Fprintf(w, "summary: %d QoR regressions, %d rows\n",
		r.QoRRegressions, len(r.Entries))
	return err
}

// WriteMarkdown renders the report as a markdown document (the CI
// artifact).
func (r *Report) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# QoR regression report\n\n")
	fmt.Fprintf(w, "- current: `%s`\n- baseline: `%s`\n", r.CurLabel, r.BaseLabel)
	fmt.Fprintf(w, "- **%d QoR regressions**, %d metrics compared\n\n",
		r.QoRRegressions, len(r.Entries))
	if len(r.NonDeterministic) > 0 {
		fmt.Fprintf(w, "> ⚠️ nondeterministic QoR across repetitions: %s\n\n",
			strings.Join(r.NonDeterministic, ", "))
	}
	interesting := 0
	for _, e := range r.Entries {
		if e.Verdict != OK {
			interesting++
		}
	}
	if interesting == 0 {
		_, err := fmt.Fprintf(w, "No QoR changes. ✅\n")
		return err
	}
	fmt.Fprintf(w, "| target | metric | base | current | delta | verdict |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---|\n")
	for _, e := range r.sortedEntries() {
		if e.Verdict == OK {
			continue
		}
		verdict := e.Verdict.String()
		if e.Verdict == Regressed {
			verdict = "**" + verdict + "**"
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %s | %s |\n",
			e.Key, e.Metric, e.Base, e.Cur, e.RelDelta(), verdict)
	}
	_, err := fmt.Fprintf(w, "\n%d unchanged metrics omitted.\n", len(r.Entries)-interesting)
	return err
}

// WriteBaselineSummary prints the one-run QoR table (no diff): per
// circuit/scenario/corner gates, area, WNS/TNS and total power.
func WriteBaselineSummary(w io.Writer, b *Baseline) error {
	fmt.Fprintf(w, "cryobench %s: %d circuits x %d reps (seed %d, clock %.3g s, testlib=%v)\n",
		b.Profile, len(b.Circuits), b.Repeat, b.Seed, b.ClockSec, b.Testlib)
	fmt.Fprintf(w, "%-12s %-10s %7s | %6s %9s %10s %10s %12s\n",
		"circuit", "scenario", "corner", "gates", "area", "wns(ps)", "tns(ps)", "total(uW)")
	for _, c := range b.Circuits {
		for _, co := range c.Corners {
			fmt.Fprintf(w, "%-12s %-10s %6gK | %6d %9.1f %10.2f %10.2f %12.4f\n",
				c.Name, c.Scenario, co.TempK, co.Gates, co.Area,
				co.WNSSec*1e12, co.TNSSec*1e12, co.TotalW*1e6)
		}
		if !c.Deterministic {
			fmt.Fprintf(w, "%-12s %-10s WARNING: nondeterministic across repetitions\n", c.Name, c.Scenario)
		}
	}
	return nil
}
