package synth

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/pdk"
	"repro/internal/sta"
	"repro/internal/testlib"
)

// sizingDigestFile holds one line per ResizeForPower run on the netlists
// stored with the gate-level simulator's tests, "<circuit> <temp>K <start>
// <budget> <ResizeResult> <sha256 of the final cells>", recorded before sizing
// stopped recompiling the netlist for every timing pass. A mismatch is a
// behaviour change, not a reason to re-record.
const sizingDigestFile = "testdata/sizing_digest.txt"

// sizingDigests resizes bar, adder, div and int2float (read from
// internal/gsim/testdata and bound to the testlib cells, as the signoff
// benchmark binds its netlists) at 300 K and 10 K under a tight and a loose
// delay budget, starting once from the mapped drives and once from the
// largest.
func sizingDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range []string{"bar", "adder", "div", "int2float"} {
		for _, tempK := range []float64{300, 10} {
			lib, cells := testlib.Build(catalog, testlib.Names(), tempK)
			for _, start := range []string{"mapped", "largest"} {
				for _, budget := range []float64{1.02, 1.3} {
					nl := readSizingNetlist(t, name, cells)
					if start == "largest" {
						// Every gate at its largest drive: the downsizing
						// sweep has work and a tight budget needs repair.
						fams := driveFamilies(nl)
						for gi := range nl.Gates {
							for up := nextDrive(fams, nl.Gates[gi].Cell, +1); up != ""; up = nextDrive(fams, up, +1) {
								nl.Gates[gi].Cell = up
							}
						}
					}
					rr, err := ResizeForPower(context.Background(), nl, lib, sta.Options{}, budget)
					if err != nil {
						t.Fatalf("%s at %g K: %v", name, tempK, err)
					}
					h := sha256.New()
					for _, g := range nl.Gates {
						fmt.Fprintln(h, g.Cell)
					}
					lines = append(lines, fmt.Sprintf("%s %gK %s %g %+v %x", name, tempK, start, budget, *rr, h.Sum(nil)))
				}
			}
		}
	}
	return lines
}

// readSizingNetlist reads internal/gsim/testdata/<name>.v.gz and binds it
// to cells.
func readSizingNetlist(t *testing.T, name string, cells []*pdk.Cell) *netlist.Netlist {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "gsim", "testdata", name+".v.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	read, err := netlist.ReadVerilog(zr, catalog)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New(read.Name, cells)
	nl.Inputs, nl.Outputs, nl.Aliases, nl.Gates = read.Inputs, read.Outputs, read.Aliases, read.Gates
	return nl
}

// TestSizingDigest pins every swap ResizeForPower makes, and the delays it
// reports, to the recorded digests.
func TestSizingDigest(t *testing.T) {
	data, err := os.ReadFile(sizingDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := sizingDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d sizing runs, %s records %d", len(got), sizingDigestFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("sizing differs from the recorded digest:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
