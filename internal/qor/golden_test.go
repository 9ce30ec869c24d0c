package qor

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the qor golden baseline file")

// goldenBaseline is a fully-populated fixed record: every schema field is
// exercised so any shape change (rename, addition, removal, unit change)
// alters the serialized bytes and trips the comparison below.
func goldenBaseline() *Baseline {
	return &Baseline{
		SchemaVersion: SchemaVersion,
		Tool:          "cryobench",
		Profile:       "smoke",
		Repeat:        2,
		Seed:          1,
		ClockSec:      1e-9,
		Testlib:       true,
		CreatedAt:     "2026-08-06T00:00:00Z",
		GoOSArch:      "linux/amd64",
		Circuits: []Circuit{{
			Name:          "ctrl",
			Scenario:      "baseline",
			AIGNodesIn:    123,
			AIGNodesOpt:   96,
			AIGDepthOpt:   9,
			Deterministic: true,
			Corners: []Corner{{
				TempK:       300,
				Gates:       41,
				Area:        82.5,
				CriticalSec: 3.25e-10,
				WNSSec:      6.75e-10,
				TNSSec:      0,
				LeakageW:    1.5e-8,
				DynamicW:    2.5e-6,
				TotalW:      2.515e-6,
				Paths: []PathRecord{{
					Endpoint:   "out0",
					ArrivalSec: 3.25e-10,
					SlackSec:   6.75e-10,
					Arcs: []ArcRecord{{
						FromNet:    "in0",
						ToNet:      "n1",
						Gate:       "g1",
						Cell:       "INVx1",
						Pin:        "A",
						DelaySec:   1.25e-10,
						ArrivalSec: 1.25e-10,
						SlewSec:    2.0e-11,
						LoadF:      3.5e-15,
					}, {
						FromNet:    "n1",
						ToNet:      "out0",
						Gate:       "g2",
						Cell:       "NAND2x1",
						Pin:        "B",
						DelaySec:   2.0e-10,
						ArrivalSec: 3.25e-10,
						SlewSec:    2.5e-11,
						LoadF:      1.0e-15,
					}},
				}},
				PowerByClass: []ClassPower{{
					Cell:       "INVx1",
					Count:      20,
					LeakageW:   7.5e-9,
					InternalW:  1.1e-6,
					SwitchingW: 2.0e-7,
				}, {
					Cell:       "NAND2x1",
					Count:      21,
					LeakageW:   7.5e-9,
					InternalW:  1.0e-6,
					SwitchingW: 1.9e-7,
				}},
			}, {
				TempK:       10,
				Gates:       41,
				Area:        82.5,
				CriticalSec: 2.75e-10,
				WNSSec:      7.25e-10,
				TNSSec:      -1.25e-12,
				LeakageW:    1.5e-12,
				DynamicW:    2.25e-6,
				TotalW:      2.25e-6,
			}},
		}},
	}
}

// TestGoldenBaselineSchema pins the serialized baseline format byte for
// byte. If this test fails you changed the schema: bump SchemaVersion,
// re-record committed baselines, and regenerate the golden file with
//
//	go test ./internal/qor -run Golden -update-golden
func TestGoldenBaselineSchema(t *testing.T) {
	path := filepath.Join("testdata", "golden_baseline.json")
	var buf bytes.Buffer
	if err := goldenBaseline().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("baseline JSON schema drifted from golden file.\n"+
			"If intentional: bump qor.SchemaVersion, regenerate committed baselines,\n"+
			"and run `go test ./internal/qor -run Golden -update-golden`.\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), string(want))
	}

	// The golden file itself must load cleanly through the versioned reader.
	if _, err := ReadBaselineFile(path); err != nil {
		t.Fatalf("golden file does not load: %v", err)
	}
}

// TestSchemaVersionMismatchFailsLoudly: a bumped (or ancient) version must
// refuse to load with an error naming both versions.
func TestSchemaVersionMismatchFailsLoudly(t *testing.T) {
	b := goldenBaseline()
	b.SchemaVersion = SchemaVersion + 1
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBaseline(&buf)
	if err == nil {
		t.Fatal("version-bumped baseline loaded silently")
	}
	if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("error does not explain the version mismatch: %v", err)
	}
}
