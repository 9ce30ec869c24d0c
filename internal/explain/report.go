package explain

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serializes the attribution report (indented, trailing newline).
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteText renders the console attribution report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "QoR attribution: %s  vs  %s\n", r.CurLabel, r.BaseLabel); err != nil {
		return err
	}
	if r.ZeroDelta {
		fmt.Fprintln(w, "zero attributed delta: the runs are QoR-identical")
		return nil
	}
	fmt.Fprintf(w, "%d attributed deltas\n", r.AttributedDeltas)
	for _, cd := range r.Circuits {
		for _, c := range cd.Corners {
			fmt.Fprintf(w, "\n%s @%gK: %s\n", cd.Key, c.TempK, c.Summary)
			for _, m := range c.Metrics {
				fmt.Fprintf(w, "  %-24s %14.6g -> %-14.6g (%+.3g)\n", m.Metric, m.Base, m.Cur, m.Delta())
			}
			for _, p := range c.Paths {
				switch p.Status {
				case PathMatched:
					fmt.Fprintf(w, "  path %s: arrival %+.2f ps  (%s)\n", p.Endpoint, p.DeltaSec*1e12, p.Culprit)
					for _, a := range p.Arcs {
						fmt.Fprintf(w, "    arc -> %-12s %-18s pin %-4s %+9.3f ps  [%s, %s]\n",
							a.ToNet, a.Label(), orDash(a.Pin), a.DeltaSec*1e12, a.Change, a.Driver)
					}
					if p.ResidualSec != 0 {
						fmt.Fprintf(w, "    (residual %+.3f ps not covered by listed arcs)\n", p.ResidualSec*1e12)
					}
				default:
					fmt.Fprintf(w, "  path %s: %s (%s)\n", p.Endpoint, p.Status, p.Culprit)
				}
			}
			for _, p := range c.Power {
				fmt.Fprintf(w, "  power %-12s count %d->%d  leak %+.4g  int %+.4g  sw %+.4g  [%s-driven]\n",
					p.Cell, p.BaseCount, p.CurCount, p.LeakageW, p.InternalW, p.SwitchingW, p.Dominant)
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// WriteMarkdown renders the attribution report as a markdown section,
// designed to be appended to the qor diff report (the CI artifact).
func (r *Report) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n# QoR attribution\n\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "- current: `%s`\n- baseline: `%s`\n", r.CurLabel, r.BaseLabel)
	if r.ZeroDelta {
		fmt.Fprintf(w, "- **zero attributed delta** — the runs are QoR-identical ✅\n")
	} else {
		fmt.Fprintf(w, "- **%d attributed deltas**\n", r.AttributedDeltas)
	}
	fmt.Fprintln(w)
	for _, cd := range r.Circuits {
		for _, c := range cd.Corners {
			fmt.Fprintf(w, "## %s @%gK\n\n", cd.Key, c.TempK)
			if c.Summary != "" {
				fmt.Fprintf(w, "> %s\n\n", c.Summary)
			}
			if len(c.Metrics) > 0 {
				fmt.Fprintf(w, "| metric | base | current | delta |\n|---|---:|---:|---:|\n")
				for _, m := range c.Metrics {
					fmt.Fprintf(w, "| %s | %.6g | %.6g | %+.3g |\n", m.Metric, m.Base, m.Cur, m.Delta())
				}
				fmt.Fprintln(w)
			}
			for _, p := range c.Paths {
				switch p.Status {
				case PathMatched:
					fmt.Fprintf(w, "**path `%s`** arrival %+.2f ps — %s\n\n", p.Endpoint, p.DeltaSec*1e12, p.Culprit)
					if len(p.Arcs) > 0 {
						fmt.Fprintf(w, "| net | cell | pin | Δdelay (ps) | Δslew (ps) | Δload (fF) | change | driver |\n")
						fmt.Fprintf(w, "|---|---|---|---:|---:|---:|---|---|\n")
						for _, a := range p.Arcs {
							fmt.Fprintf(w, "| %s | %s | %s | %+.3f | %+.3f | %+.4f | %s | %s |\n",
								a.ToNet, a.Label(), orDash(a.Pin), a.DeltaSec*1e12,
								a.SlewDeltaSec*1e12, a.LoadDeltaF*1e15, a.Change, a.Driver)
						}
						if p.ResidualSec != 0 {
							fmt.Fprintf(w, "\nresidual %+.3f ps not covered by listed arcs\n", p.ResidualSec*1e12)
						}
						fmt.Fprintln(w)
					}
				default:
					fmt.Fprintf(w, "**path `%s`**: %s — %s\n\n", p.Endpoint, p.Status, p.Culprit)
				}
			}
			if len(c.Power) > 0 {
				fmt.Fprintf(w, "| cell class | count | Δleakage (W) | Δinternal (W) | Δswitching (W) | dominant |\n")
				fmt.Fprintf(w, "|---|---|---:|---:|---:|---|\n")
				for _, p := range c.Power {
					fmt.Fprintf(w, "| %s | %d→%d | %+.4g | %+.4g | %+.4g | %s |\n",
						p.Cell, p.BaseCount, p.CurCount, p.LeakageW, p.InternalW, p.SwitchingW, p.Dominant)
				}
				fmt.Fprintln(w)
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "> ⚠️ %s\n", n)
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
