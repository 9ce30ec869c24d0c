package aig_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// resubDigestCircuits are EPFL builds that Resub reduces.
var resubDigestCircuits = []string{"ctrl", "int2float", "router", "cavlc"}

// resubLine renders one Resub run at seed 1: the node counts before and
// after in the clear, the result's AIGER text as a hash.
func resubLine(t *testing.T, kind string, g *aig.AIG) string {
	t.Helper()
	r := g.Resub(1)
	var b bytes.Buffer
	if err := r.WriteAIGER(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %d->%d %x", kind, g.NumNodes(), r.NumNodes(), sha256.Sum256(b.Bytes()))
}

func resubDigests(t *testing.T) []string {
	var got []string
	for seed := int64(1); seed <= 8; seed++ {
		g := aig.RandomAIG(seed, 16, 300, 40)
		got = append(got, resubLine(t, fmt.Sprintf("rand%d default", seed), g))
	}
	for _, name := range resubDigestCircuits {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resubLine(t, name+" default", g))
	}
	return got
}

// TestResubDigest pins the structure Resub returns on seeded random graphs
// and on EPFL builds to lines recorded before the resub proofs moved onto
// aig.CNFBuilder.Prove and the unreachable 1-resub search was deleted.
// Never re-record them: a mismatch means Resub's output changed.
func TestResubDigest(t *testing.T) {
	want := readDigestLines(t, filepath.Join("testdata", "resub_digest.txt"))
	got := resubDigests(t)
	if len(got) != len(want) {
		t.Fatalf("computed %d digest lines, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// readDigestLines returns the non-blank, non-comment lines of path.
func readDigestLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}
