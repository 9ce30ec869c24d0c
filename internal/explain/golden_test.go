package explain_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explain"
	"repro/internal/qor"
)

// renderGolden diffs the handcrafted pair in testdata through every report
// renderer of the gate and of the attribution engine. The pair reaches each
// pairing branch: circuits and corners only in one run, an AIG trajectory
// move, new, removed and matched paths with added, removed, cell-swapped,
// slew-, load- and table-driven arcs, new, removed and changed power
// classes, a corner without provenance, and a corner (dup/baseline) that
// repeats an endpoint and a power class. Repeated circuit keys and corner
// temperatures never reach a diff: ReadBaseline rejects them.
func renderGolden(t *testing.T) []byte {
	t.Helper()
	base, err := qor.ReadBaselineFile(filepath.Join("testdata", "golden-base.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := qor.ReadBaselineFile(filepath.Join("testdata", "golden-cur.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep := qor.Diff(base, cur)
	att := explain.Diff(base, cur)
	var buf bytes.Buffer
	for _, s := range []struct {
		name   string
		render func() error
	}{
		{"qor table, verbose", func() error { return rep.WriteTable(&buf, true) }},
		{"qor table", func() error { return rep.WriteTable(&buf, false) }},
		{"qor markdown", func() error { return rep.WriteMarkdown(&buf) }},
		{"explain text", func() error { return att.WriteText(&buf) }},
		{"explain markdown", func() error { return att.WriteMarkdown(&buf) }},
		{"explain json", func() error { return att.WriteJSON(&buf) }},
	} {
		buf.WriteString("==== " + s.name + " ====\n")
		if err := s.render(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	return buf.Bytes()
}

// TestReportGolden pins every diff and attribution report, byte for byte,
// on the handcrafted pair. The golden is an oracle recorded once: a change
// that moves it changed what a report says.
func TestReportGolden(t *testing.T) {
	got := renderGolden(t)
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reports drifted from testdata/report.golden:\n%s", got)
	}
}
