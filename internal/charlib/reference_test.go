package charlib

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/liberty"
)

// referenceFile holds the full-precision QuickConfig characterization of
// the golden cells, recorded before transient Newton solves started from a
// predicted point. It is the oracle for changes that move results by
// solver-tolerance noise; never re-record it.
const referenceFile = "reference_quick.txt"

// referenceBand is the relative deviation from the reference each kind of
// table entry may show: at most 4x the largest deviation measured when
// transient Newton solves started from a predicted point (delay 8.05e-8,
// transition 2.88e-7, energy 5.09e-6), and never more than 1e-3. Leakage
// comes from DC solves alone and the setup/hold bisection did not move, so
// both must stay exact.
var referenceBand = map[string]float64{
	"delay":      3.2e-7,
	"transition": 1.1e-6,
	"energy":     2e-5,
	"leakage":    0,
	"constraint": 0,
}

// referenceKind maps a table name to the kind its band is set by.
func referenceKind(table string) string {
	switch {
	case table == "leakage":
		return "leakage"
	case strings.HasPrefix(table, "cell_"):
		return "delay"
	case strings.HasSuffix(table, "_transition"):
		return "transition"
	case strings.HasSuffix(table, "_power"):
		return "energy"
	default:
		return "constraint"
	}
}

// referenceEntry is one table entry: "<temp>K <cell> <table> <i> <j>",
// with the table named "leakage" or "<pin>/<related pin>/<liberty group>".
type referenceEntry struct {
	key   string
	table string
	value float64
}

// libraryEntries flattens a characterized library into its table entries,
// in library order.
func libraryEntries(lib *liberty.Library) []referenceEntry {
	var out []referenceEntry
	add := func(cell, table string, tb *liberty.Table) {
		for i, row := range tb.Values {
			for j, v := range row {
				out = append(out, referenceEntry{
					key:   fmt.Sprintf("%gK %s %s %d %d", lib.TempK, cell, table, i, j),
					table: table[strings.LastIndex(table, "/")+1:],
					value: v,
				})
			}
		}
	}
	for _, c := range lib.Cells {
		out = append(out, referenceEntry{key: fmt.Sprintf("%gK %s leakage 0 0", lib.TempK, c.Name), table: "leakage", value: c.LeakagePower})
		for _, p := range c.Pins {
			for _, tm := range p.Timings {
				name := p.Name + "/" + tm.RelatedPin + "/"
				if strings.HasPrefix(tm.Type, "setup") || strings.HasPrefix(tm.Type, "hold") {
					add(c.Name, name+tm.Type, tm.CellRise)
					continue
				}
				add(c.Name, name+"cell_rise", tm.CellRise)
				add(c.Name, name+"cell_fall", tm.CellFall)
				add(c.Name, name+"rise_transition", tm.RiseTrans)
				add(c.Name, name+"fall_transition", tm.FallTrans)
			}
			for _, pw := range p.Powers {
				name := p.Name + "/" + pw.RelatedPin + "/"
				add(c.Name, name+"rise_power", pw.RisePower)
				add(c.Name, name+"fall_power", pw.FallPower)
			}
		}
	}
	return out
}

// readReference parses the reference file into values by entry key.
func readReference(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", referenceFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if cut < 0 || err != nil {
			t.Fatalf("%s: bad line %q", referenceFile, line)
		}
		ref[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestNearReference requires every table entry of the golden libraries to
// stay within its kind's band of the recorded reference, and logs the
// largest relative deviation of each kind. Unlike TestLibertyGolden it
// tolerates the last-digit moves that a change of Newton path makes, and
// unlike a re-recorded golden file it cannot drift with the code.
func TestNearReference(t *testing.T) {
	ref := readReference(t)
	worst := map[string]float64{}
	var n int
	for _, temp := range goldenTemps {
		for _, e := range libraryEntries(goldenLibrary(t, temp)) {
			want, ok := ref[e.key]
			if !ok {
				t.Errorf("%s: not in the reference", e.key)
				continue
			}
			n++
			kind := referenceKind(e.table)
			dev := math.Abs(e.value-want) / math.Abs(want)
			if e.value == want {
				dev = 0 // also where both are zero
			}
			worst[kind] = max(worst[kind], dev)
			if dev > referenceBand[kind] {
				t.Errorf("%s = %.17g, reference %.17g: relative deviation %.3g exceeds the %s band %.3g",
					e.key, e.value, want, dev, kind, referenceBand[kind])
			}
		}
	}
	if n != len(ref) {
		t.Errorf("compared %d entries, the reference has %d", n, len(ref))
	}
	kinds := make([]string, 0, len(worst))
	for k := range worst {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Logf("%-10s max relative deviation %.3g (band %.3g)", k, worst[k], referenceBand[k])
	}
}
