package qor_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explain"
	"repro/internal/qor"
)

// trimmedSmokeBaseline re-encodes the committed smoke baseline cut down to
// its first circuit: a real recording, with real path and power-class
// provenance, small enough to mutate quickly.
func trimmedSmokeBaseline(t testing.TB) []byte {
	b, err := qor.ReadBaselineFile(filepath.Join("..", "..", "bench", "baseline-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	b.Circuits = b.Circuits[:1]
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadBaseline: baselines are files read from outside the program, so
// any input ReadBaseline accepts must go through the QoR diff, the
// attribution engine and every renderer of both without panicking — as
// either side of a diff, against itself and against a real recording.
// Errors (e.g. a JSON renderer refusing a value) are fine; panics are not.
func FuzzReadBaseline(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	smoke := trimmedSmokeBaseline(f)
	f.Add(golden)
	f.Add(smoke)
	// Repeated endpoints and cell classes (ReadBaseline rejects repeated
	// circuit keys and corner temperatures); paths without arcs;
	// magnitudes whose deltas overflow.
	f.Add([]byte(`{"schema_version":3,"circuits":[{"circuit":"a","scenario":"s","corners":[
		{"temp_k":10,"wns_seconds":-1e308,"paths":[{"endpoint":"y","arrival_seconds":1e308,
		"arcs":[{"to_net":"y","delay_seconds":-1e308},{"to_net":"y","cell":"X"}]},{"endpoint":"y"}],
		"power_by_class":[{"cell":"X","count":1},{"cell":"X","switching_w":1e308}]}]}]}`))
	ref, err := qor.ReadBaseline(bytes.NewReader(smoke))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := qor.ReadBaseline(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, pair := range [][2]*qor.Baseline{{b, b}, {ref, b}, {b, ref}} {
			rep := qor.Diff(pair[0], pair[1])
			_ = rep.WriteTable(io.Discard, true)
			_ = rep.WriteMarkdown(io.Discard)
			att := explain.Diff(pair[0], pair[1])
			_ = att.WriteText(io.Discard)
			_ = att.WriteMarkdown(io.Discard)
			_ = att.WriteJSON(io.Discard)
		}
		_ = qor.WriteBaselineSummary(io.Discard, b)
	})
}
