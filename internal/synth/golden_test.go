package synth

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// goldenDigestFile holds one line per synthesis artifact, "<circuit> <seed>
// <artifact> <sha256>", recorded from the flow before its AIG construction
// and mapping were reworked for speed. The reworks must leave every search
// order, accepted rewrite and cut order as it was, so the digests must not
// move; a mismatch is a behaviour change, not a reason to re-record.
const goldenDigestFile = "testdata/golden_digest.txt"

// goldenDigests synthesizes the pinned circuits and returns their artifact
// lines: the c2rs AIG, each power-stage candidate (AIGER text) and each
// scenario's mapped netlist (Verilog).
func goldenDigests(t *testing.T) []string {
	t.Helper()
	ml, _ := buildML(t, 10)
	ctx := context.Background()
	var lines []string
	add := func(name string, seed int64, artifact string, data []byte) {
		lines = append(lines, fmt.Sprintf("%s %d %s %x", name, seed, artifact, sha256.Sum256(data)))
	}
	aiger := func(g *aig.AIG) []byte {
		var b bytes.Buffer
		if err := g.WriteAIGER(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, name := range []string{"adder", "square", "mem_ctrl"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{201, 202} {
			add(name, seed, "c2rs", aiger(c2rs(g, seed).z))
			f := Prepare(ctx, g, Options{Seed: seed})
			for i, c := range f.cands {
				add(name, seed, fmt.Sprintf("cand%d", i), aiger(c.net))
			}
			for _, sc := range allScenarios {
				res, err := f.Synthesize(ctx, ml, sc)
				if err != nil {
					t.Fatal(err)
				}
				add(name, seed, "map_"+sc.String(), verilogOf(t, res.Netlist))
			}
		}
	}
	return lines
}

// TestGoldenDigest pins the c2rs AIG, the power-stage candidates and the
// three mapped netlists of adder, square and mem_ctrl at seeds 201 and 202
// to the recorded digests.
func TestGoldenDigest(t *testing.T) {
	f, err := os.Open(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d artifacts, %s records %d", len(got), goldenDigestFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("artifact differs from the recorded digest:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
