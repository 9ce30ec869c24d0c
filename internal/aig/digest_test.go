package aig_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
)

// cutDigestFile holds one line per enumeration, "<circuit> <form> <k>
// <maxCuts> <sha256>", recorded from the sorted-list merge that preceded the
// bitmask kernel. The kernel must return the same cuts in the same order for
// every node, so a mismatch is a behaviour change, not a reason to
// re-record.
const cutDigestFile = "testdata/cut_digest.txt"

// cutShapes are the (k, maxCuts) pairs the flow enumerates: rewrite and
// refactor (4, 6), the cell mapper (6, 4), LUT mapping (6, 8) and the
// mapper's wider cut table (5, 8).
var cutShapes = [][2]int{{4, 6}, {6, 4}, {6, 8}, {5, 8}}

// cutListDigest hashes every variable's cut list: its length, then each
// cut's leaf count and leaves.
func cutListDigest(cuts [][]aig.Cut) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, cs := range cuts {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(cs)))
		for _, c := range cs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Leaves)))
			for _, l := range c.Leaves {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
			}
		}
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestEnumerateCutsDigest pins every cut list of all twenty scaled EPFL
// builds and their balanced forms, at each in-tree cut shape, to the
// recorded digests.
func TestEnumerateCutsDigest(t *testing.T) {
	f, err := os.Open(cutDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, gen := range epfl.Suite() {
		g, err := epfl.BuildScaled(gen.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			g    *aig.AIG
		}{{"scaled", g}, {"balanced", g.Balance()}} {
			for _, shape := range cutShapes {
				key := fmt.Sprintf("%s %s %d %d", gen.Name, form.name, shape[0], shape[1])
				got := fmt.Sprintf("%x", cutListDigest(form.g.EnumerateCuts(shape[0], shape[1])))
				if want[key] != got {
					t.Errorf("%s: digest %s, recorded %q", key, got, want[key])
				}
				n++
			}
		}
	}
	if n != len(want) {
		t.Fatalf("computed %d digests, %s records %d", n, cutDigestFile, len(want))
	}
}
