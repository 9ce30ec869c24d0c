package gsim

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// goldenCircuits are the gzipped mapped netlists stored under testdata/
// (WriteVerilog text, <name>.v.gz): the scaled
// EPFL bar, adder and div builds and the int2float smoke circuit, each
// mapped with mapper.Map against the 10 K testlib library. Reading them back
// instead of re-synthesizing keeps the event digests independent of any
// later synthesis or mapping change.
var goldenCircuits = []string{"bar", "adder", "div", "int2float"}

// goldenModes are the delay annotations each stored netlist is simulated
// under: unannotated unit delays, then liberty delays at 300 K and 10 K.
var goldenModes = []struct {
	name  string
	tempK float64 // 0 = unit delays
}{{"unit", 0}, {"300K", 300}, {"10K", 10}}

const (
	goldenVectors = 64
	goldenSeed    = 201
	// The VCD digest covers one annotated run of the smoke circuit.
	goldenVCDCircuit = "int2float"
	goldenVCDTempK   = 10
	goldenVCDVectors = 16
)

// readGoldenModel compiles testdata/<name>.v.gz against the PDK catalog.
func readGoldenModel(t testing.TB, name string) *Model {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name+".v.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	nl, err := netlist.ReadVerilog(zr, pdk.Catalog())
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	m, err := Compile(nl)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return m
}

// annotateAt attaches testlib liberty delays at tempK to m.
func annotateAt(t testing.TB, m *Model, tempK float64) {
	t.Helper()
	lib, _ := testlib.Build(pdk.Catalog(), testlib.Names(), tempK)
	if err := m.Annotate(context.Background(), lib, sta.Options{}); err != nil {
		t.Fatalf("annotate %s at %g K: %v", m.Name, tempK, err)
	}
}

// delayDigest hashes the annotated per-arc delays, so a digest mismatch can
// be told apart as annotation drift (STA, liberty) or engine drift.
func delayDigest(m *Model) string {
	h := sha256.New()
	for _, arcs := range m.DelayFs {
		binary.Write(h, binary.LittleEndian, int64(len(arcs)))
		binary.Write(h, binary.LittleEndian, arcs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest hashes every observable of an event run: Events, MaxQueue,
// SimTimeFs, per-net Toggles, per-vector OutputBits and the Final values.
func resultDigest(r *Result) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, []int64{r.Events, int64(r.MaxQueue), r.SimTimeFs, int64(len(r.Toggles))})
	binary.Write(h, binary.LittleEndian, r.Toggles)
	for _, ob := range r.OutputBits {
		binary.Write(h, binary.LittleEndian, int64(len(ob)))
		binary.Write(h, binary.LittleEndian, ob)
	}
	binary.Write(h, binary.LittleEndian, r.Final)
	return hex.EncodeToString(h.Sum(nil))
}

// eventDigests runs the event engine over every golden circuit and mode and
// returns "<kind> <circuit> <mode> <sha256>" lines in a fixed order.
func eventDigests(t testing.TB) []string {
	t.Helper()
	ctx := context.Background()
	var lines []string
	for _, name := range goldenCircuits {
		for _, mode := range goldenModes {
			m := readGoldenModel(t, name)
			if mode.tempK != 0 {
				annotateAt(t, m, mode.tempK)
				lines = append(lines, fmt.Sprintf("delays %s %s %s", name, mode.name, delayDigest(m)))
			}
			res, err := NewEvent(m, EventOptions{}).Run(ctx, m.RandomVectors(goldenVectors, goldenSeed))
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode.name, err)
			}
			lines = append(lines, fmt.Sprintf("event %s %s %s", name, mode.name, resultDigest(res)))
		}
	}
	m := readGoldenModel(t, goldenVCDCircuit)
	annotateAt(t, m, goldenVCDTempK)
	var buf bytes.Buffer
	tr := NewVCDTracer(&buf, m, "golden")
	if _, err := NewEvent(m, EventOptions{Trace: tr}).Run(ctx, m.RandomVectors(goldenVCDVectors, goldenSeed)); err != nil {
		t.Fatalf("vcd run: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("vcd close: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	lines = append(lines, fmt.Sprintf("vcd %s %dK %s", goldenVCDCircuit, goldenVCDTempK, hex.EncodeToString(sum[:])))
	return lines
}

// TestEventGoldenDigest pins every observable of the event engine — event
// and toggle counts including glitches, queue high-water mark, simulated
// time, outputs, settled state and the VCD byte stream — to digests recorded
// from the binary-heap engine the calendar queue replaced. The digests are
// never re-recorded: a mismatch on an "event" or "vcd" line with matching
// "delays" lines is an engine change; a "delays" mismatch means annotation
// (STA or the testlib liberty model) moved underneath the engine.
func TestEventGoldenDigest(t *testing.T) {
	want := readDigestFile(t, filepath.Join("testdata", "event_digest.txt"))
	got := eventDigests(t)
	if len(got) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

func readDigestFile(t testing.TB, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
