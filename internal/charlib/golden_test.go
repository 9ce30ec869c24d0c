package charlib

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/pdk"
)

// TestLibertyGolden pins the exact characterization output: the QuickConfig
// liberty text of a mix of combinational and sequential cells at 300 K and
// 10 K (plus setup/hold constraint arcs on the 10 K flops) must equal the
// recorded file byte for byte. Liberty numbers are written with %.6g, so
// last-bit floating-point differences between hosts do not show; any change
// to a testbench (stimulus, load, node or element order, step size) does.
//
// A mismatch writes the new text to the system temporary directory and
// names the file in the failure; copy it over the testdata file only when
// the change in output is intended.
func TestLibertyGolden(t *testing.T) {
	for _, temp := range goldenTemps {
		lib := goldenLibrary(t, temp)
		var got bytes.Buffer
		if err := lib.Write(&got); err != nil {
			t.Fatal(err)
		}
		file := fmt.Sprintf("golden_%gK.lib", temp)
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		out := filepath.Join(os.TempDir(), "charlib_"+file)
		if err := os.WriteFile(out, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%g K liberty differs from testdata/%s at %s (new text written to %s)", temp, file, firstDiff(got.String(), string(want)), out)
	}
}

// goldenTemps are the corners of the golden libraries.
var goldenTemps = []float64{300, 10}

// goldenLibs caches the golden libraries by corner, so the tests that read
// them characterize each corner once per test binary.
var goldenLibs = map[float64]*liberty.Library{}

// goldenLibrary characterizes the golden cells with QuickConfig at temp,
// with setup/hold constraint arcs on the flops at 10 K.
func goldenLibrary(t *testing.T, temp float64) *liberty.Library {
	t.Helper()
	if lib := goldenLibs[temp]; lib != nil {
		return lib
	}
	names := []string{"INVx1", "NAND2x1", "XOR2x1", "MUX2x1", "HAx1", "DFFx1", "DFFNx1", "SDFFx1", "DLATCHx1"}
	var cells []*pdk.Cell
	for _, n := range names {
		cells = append(cells, cellByName(t, n))
	}
	cfg := QuickConfig(temp)
	lib, err := CharacterizeLibrary(context.Background(), fmt.Sprintf("golden%gk", temp), cells, cfg)
	if err != nil {
		t.Fatalf("%g K: %v", temp, err)
	}
	if temp == 10 {
		for _, n := range []string{"DFFx1", "DFFNx1"} {
			if err := AttachConstraints(lib.FindCell(n), cellByName(t, n), cfg); err != nil {
				t.Fatalf("%s at %g K: %v", n, temp, err)
			}
		}
	}
	goldenLibs[temp] = lib
	return lib
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, strings.TrimSpace(g[i]), strings.TrimSpace(w[i]))
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}
