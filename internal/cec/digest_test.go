package cec_test

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/netlist"
	"repro/internal/pdk"
)

// digestCircuits are the mapped netlists stored with the gate-level
// simulator's tests (internal/gsim/testdata/<name>.v.gz), each checked
// against the EPFL build it was mapped from.
var digestCircuits = []string{"bar", "adder", "div", "int2float"}

const digestSeed = 201

func readStoredNetlist(t testing.TB, name string) *netlist.Netlist {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "gsim", "testdata", name+".v.gz"))
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
	return nl
}

// mutateGate swaps one seeded gate's cell for the first catalog cell with
// as many inputs and a different function, returning the gate's index.
func mutateGate(t testing.TB, nl *netlist.Netlist, seed int64) int {
	t.Helper()
	gi := rand.New(rand.NewSource(seed)).Intn(len(nl.Gates))
	def := nl.Cell(nl.Gates[gi].Cell)
	tt, _ := def.Truth(def.Outputs[0])
	for _, c := range pdk.Catalog() {
		if c.Seq || len(c.Outputs) != 1 || len(c.Inputs) != len(def.Inputs) || nl.Cell(c.Name) == nil {
			continue
		}
		if ct, ok := c.Truth(c.Outputs[0]); ok && ct != tt {
			nl.Gates[gi].Cell = c.Name
			return gi
		}
	}
	t.Fatalf("%s: no replacement cell for gate %d (%s)", nl.Name, gi, def.Name)
	return -1
}

// verdictLine renders a verdict: status and every Stats counter in the
// clear, the counterexample side (failing output, cex bits, output values,
// reason, undecided outputs) as a hash.
func verdictLine(kind, name string, v *cec.Verdict) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q %q %v %v", v.Reason, v.FailingOutput, v.UndecidedOutputs, v.OutA, v.OutB)
	binary.Write(h, binary.LittleEndian, v.Counterexample)
	return fmt.Sprintf("%s %s %s %+v %s", kind, name, v.Status, v.Stats, hex.EncodeToString(h.Sum(nil))[:16])
}

// TestCheckGoldenDigest runs the SAT-sweeping engine (SweepCheck, so
// int2float's 12 inputs do not take the exhaustive path) on the stored
// netlists and one seeded gate mutation each. Against cec_digest.txt,
// recorded from the pointer-based SAT solver the flat clause store
// replaced and never re-recorded, it compares the columns that do not
// depend on the SAT search: kind, name, status and MiterNodes. The other
// Stats counters and the counterexample bits follow the search's choices,
// so every NOT-EQUAL verdict is replayed instead.
func TestCheckGoldenDigest(t *testing.T) {
	want := readDigestFile(t, filepath.Join("testdata", "cec_digest.txt"))
	got := checkDigests(t)
	if len(got) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if searchFree(got[i]) != searchFree(want[i]) {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// searchFree keeps the columns of a verdictLine that the SAT search
// cannot move: kind, name, status and MiterNodes (the joint miter is
// built before any proof).
func searchFree(line string) string {
	head, stats, _ := strings.Cut(line, " {")
	miter, _, _ := strings.Cut(stats, " ")
	return head + " {" + miter
}

// replayFailing replays a NOT-EQUAL verdict of a against b with replayCex
// at a's output named FailingOutput.
func replayFailing(t *testing.T, what string, a, b *aig.AIG, v *cec.Verdict) {
	t.Helper()
	for o := 0; o < a.NumPOs(); o++ {
		if a.POName(o) == v.FailingOutput {
			replayCex(t, what, a, b, v, o)
			return
		}
	}
	t.Fatalf("%s: failing output %q is not an output of %s", what, v.FailingOutput, a.Name)
}

// checkDigests checks every stored netlist and its seeded mutant against
// the EPFL source and returns one verdictLine each, in a fixed order.
func checkDigests(t *testing.T) []string {
	var got []string
	for _, name := range digestCircuits {
		src, err := epfl.BuildScaled(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := cec.Options{Workers: 1, Seed: digestSeed}
		nl := readStoredNetlist(t, name)
		ea, err := cec.Elaborate(nl)
		if err != nil {
			t.Fatal(err)
		}
		v := cec.SweepCheck(ctx, src, ea, opt)
		if v.Status != cec.Equal {
			t.Errorf("%s: %v, want EQUAL", name, v.Status)
		}
		got = append(got, verdictLine("equal", name, v))

		gi := mutateGate(t, nl, digestSeed)
		em, err := cec.Elaborate(nl)
		if err != nil {
			t.Fatal(err)
		}
		v = cec.SweepCheck(ctx, src, em, opt)
		if v.Status != cec.NotEqual || v.Counterexample == nil || v.OutA == v.OutB {
			t.Errorf("%s gate %d mutated: %v (OutA %v, OutB %v), want a genuine NOT-EQUAL", name, gi, v.Status, v.OutA, v.OutB)
		} else {
			replayFailing(t, fmt.Sprintf("%s gate %d mutated", name, gi), src, em, v)
		}
		got = append(got, verdictLine("mutant", name, v))
	}
	return got
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
