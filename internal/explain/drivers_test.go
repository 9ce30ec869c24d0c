package explain_test

import (
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/qor"
)

// twoArcPath builds a launch point plus two gate arcs ending at endpoint
// "y" through nets n1 and n2.
func twoArcPath(d1, d2, slew1, slew2, load2 float64, cell2 string) qor.PathRecord {
	return qor.PathRecord{
		Endpoint:   "y",
		ArrivalSec: d1 + d2,
		SlackSec:   1e-9 - (d1 + d2),
		Arcs: []qor.ArcRecord{
			{ToNet: "a", SlewSec: 1e-11},
			{FromNet: "a", ToNet: "n1", Gate: "g1", Cell: "INVx1", Pin: "A",
				DelaySec: d1, ArrivalSec: d1, SlewSec: slew1, LoadF: 2e-15},
			{FromNet: "n1", ToNet: "n2", Gate: "g2", Cell: cell2, Pin: "A",
				DelaySec: d2, ArrivalSec: d1 + d2, SlewSec: slew2, LoadF: load2},
		},
	}
}

func cornerWith(p qor.PathRecord) qor.Corner {
	return qor.Corner{TempK: 300, Paths: []qor.PathRecord{p}}
}

func baselineWith(c qor.Corner) *qor.Baseline {
	return &qor.Baseline{
		SchemaVersion: qor.SchemaVersion, Tool: "cryobench", Profile: "unit",
		Circuits: []qor.Circuit{{
			Name: "t", Scenario: "s", Deterministic: true,
			Corners: []qor.Corner{c},
		}},
	}
}

// firstPath digs the single attributed path out of a report.
func firstPath(t *testing.T, rep *explain.Report) *explain.PathDelta {
	t.Helper()
	for i := range rep.Circuits {
		for j := range rep.Circuits[i].Corners {
			if ps := rep.Circuits[i].Corners[j].Paths; len(ps) > 0 {
				return &ps[0]
			}
		}
	}
	t.Fatalf("no path delta in report: %+v", rep)
	return nil
}

func TestArcDriverClassification(t *testing.T) {
	base := twoArcPath(10e-12, 20e-12, 10e-12, 15e-12, 3e-15, "NAND2x1")

	t.Run("slew-driven", func(t *testing.T) {
		// g1 slows and its output slew degrades; g2's delay moves because
		// its input transition (n1's slew) degraded.
		cur := twoArcPath(14e-12, 23e-12, 14e-12, 15e-12, 3e-15, "NAND2x1")
		rep := explain.Diff(baselineWith(cornerWith(base)), baselineWith(cornerWith(cur)))
		p := firstPath(t, rep)
		var g2 *explain.ArcDelta
		for i := range p.Arcs {
			if p.Arcs[i].ToNet == "n2" {
				g2 = &p.Arcs[i]
			}
		}
		if g2 == nil {
			t.Fatalf("g2 arc not attributed: %+v", p.Arcs)
		}
		if g2.Driver != explain.DriverSlew {
			t.Errorf("g2 driver = %s, want %s", g2.Driver, explain.DriverSlew)
		}
		if g2.SlewDeltaSec <= 0 {
			t.Errorf("slew delta not recorded: %+v", g2)
		}
	})

	t.Run("load-driven", func(t *testing.T) {
		// Same slews, g2's output load grows.
		cur := twoArcPath(10e-12, 24e-12, 10e-12, 15e-12, 5e-15, "NAND2x1")
		rep := explain.Diff(baselineWith(cornerWith(base)), baselineWith(cornerWith(cur)))
		p := firstPath(t, rep)
		var g2 *explain.ArcDelta
		for i := range p.Arcs {
			if p.Arcs[i].ToNet == "n2" {
				g2 = &p.Arcs[i]
			}
		}
		if g2 == nil || g2.Driver != explain.DriverLoad {
			t.Errorf("g2 = %+v, want %s", g2, explain.DriverLoad)
		}
	})

	t.Run("table-driven", func(t *testing.T) {
		// Same cell, slew, load — only the delay moved: the library moved.
		cur := twoArcPath(10e-12, 26e-12, 10e-12, 15e-12, 3e-15, "NAND2x1")
		rep := explain.Diff(baselineWith(cornerWith(base)), baselineWith(cornerWith(cur)))
		p := firstPath(t, rep)
		var g2 *explain.ArcDelta
		for i := range p.Arcs {
			if p.Arcs[i].ToNet == "n2" {
				g2 = &p.Arcs[i]
			}
		}
		if g2 == nil || g2.Driver != explain.DriverTable {
			t.Errorf("g2 = %+v, want %s", g2, explain.DriverTable)
		}
	})

	t.Run("cell-swap-wins", func(t *testing.T) {
		// Cell changed AND slew changed: the swap is the explanation.
		cur := twoArcPath(10e-12, 17e-12, 10e-12, 12e-12, 3e-15, "NAND2x2")
		rep := explain.Diff(baselineWith(cornerWith(base)), baselineWith(cornerWith(cur)))
		p := firstPath(t, rep)
		var g2 *explain.ArcDelta
		for i := range p.Arcs {
			if p.Arcs[i].ToNet == "n2" {
				g2 = &p.Arcs[i]
			}
		}
		if g2 == nil || g2.Change != explain.ArcCellSwap || g2.Driver != explain.DriverCell {
			t.Errorf("g2 = %+v, want %s/%s", g2, explain.ArcCellSwap, explain.DriverCell)
		}
		if g2.Label() != "NAND2x1->NAND2x2" {
			t.Errorf("Label = %q", g2.Label())
		}
	})
}

func TestStructuralPathChanges(t *testing.T) {
	base := cornerWith(twoArcPath(10e-12, 20e-12, 10e-12, 15e-12, 3e-15, "NAND2x1"))

	// New endpoint appears in the top-K set; old one leaves.
	curPath := twoArcPath(10e-12, 20e-12, 10e-12, 15e-12, 3e-15, "NAND2x1")
	curPath.Endpoint = "z"
	cur := cornerWith(curPath)
	rep := explain.Diff(baselineWith(base), baselineWith(cur))
	if rep.ZeroDelta {
		t.Fatal("endpoint churn attributed nothing")
	}
	var sawNew, sawRemoved bool
	for _, cd := range rep.Circuits {
		for _, c := range cd.Corners {
			for _, p := range c.Paths {
				switch p.Status {
				case explain.PathNew:
					sawNew = true
					if p.Endpoint != "z" {
						t.Errorf("new endpoint = %s, want z", p.Endpoint)
					}
				case explain.PathRemoved:
					sawRemoved = true
					if p.Endpoint != "y" {
						t.Errorf("removed endpoint = %s, want y", p.Endpoint)
					}
				}
			}
		}
	}
	if !sawNew || !sawRemoved {
		t.Errorf("endpoint churn not classified (new=%v removed=%v)", sawNew, sawRemoved)
	}
}

func TestArcStructuralChanges(t *testing.T) {
	base := twoArcPath(10e-12, 20e-12, 10e-12, 15e-12, 3e-15, "NAND2x1")
	// The current path routes through an extra buffer net n1b.
	cur := base
	cur.Arcs = append([]qor.ArcRecord(nil), base.Arcs...)
	extra := qor.ArcRecord{FromNet: "n1", ToNet: "n1b", Gate: "g9", Cell: "BUFx1",
		Pin: "A", DelaySec: 5e-12, ArrivalSec: 15e-12, SlewSec: 10e-12, LoadF: 2e-15}
	cur.Arcs = append(cur.Arcs[:2:2], append([]qor.ArcRecord{extra}, cur.Arcs[2:]...)...)
	cur.Arcs[3].FromNet = "n1b"
	cur.ArrivalSec += 5e-12

	rep := explain.Diff(baselineWith(cornerWith(base)), baselineWith(cornerWith(cur)))
	p := firstPath(t, rep)
	var added *explain.ArcDelta
	for i := range p.Arcs {
		if p.Arcs[i].Change == explain.ArcAdded {
			added = &p.Arcs[i]
		}
	}
	if added == nil || added.ToNet != "n1b" || added.Driver != explain.DriverStructural {
		t.Errorf("added buffer arc not classified structural: %+v", p.Arcs)
	}
}

func TestMissingProvenanceDegradesToNote(t *testing.T) {
	// Schema-v1-style corners: scalars only. A WNS delta must still be
	// reported, with a note that arc attribution is unavailable.
	mk := func(wns float64) *qor.Baseline {
		return baselineWith(qor.Corner{TempK: 300, WNSSec: wns})
	}
	rep := explain.Diff(mk(7e-10), mk(6.5e-10))
	if rep.ZeroDelta {
		t.Fatal("WNS delta attributed nothing")
	}
	foundNote := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "no path provenance") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Errorf("missing-provenance note absent: %v", rep.Notes)
	}
}
