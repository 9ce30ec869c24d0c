package aig

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// fuzzRoundTrip is the property both AIGER fuzz targets check on every
// input the reader accepts: writing the graph, reading that back and
// writing again reproduces the first write byte for byte.
func fuzzRoundTrip(t *testing.T, g *AIG, write func(*AIG, io.Writer) error, read func(io.Reader) (*AIG, error)) {
	var first, second bytes.Buffer
	if err := write(g, &first); err != nil {
		t.Fatalf("write of an accepted graph: %v", err)
	}
	back, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-read of written graph: %v\n%q", err, first.Bytes())
	}
	if err := write(back, &second); err != nil {
		t.Fatalf("second write: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write→read→write changed the file:\n%q\n%q", first.Bytes(), second.Bytes())
	}
}

// aigerSeeds returns written random graphs (ASCII or binary) plus the
// reader's known bad inputs.
func aigerSeeds(f *testing.F, write func(*AIG, io.Writer) error, bad []string) {
	for seed := int64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := write(randomAIG(seed, 4, 12, 3), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range bad {
		f.Add([]byte(s))
	}
}

// FuzzReadAIGER: the ASCII reader never panics, and whatever it accepts
// survives a write→read→write round trip.
//
//	go test ./internal/aig -run XXX -fuzz '^FuzzReadAIGER$' -fuzztime 10s
func FuzzReadAIGER(f *testing.F) {
	aigerSeeds(f, (*AIG).WriteAIGER, []string{
		"aag 7 2 0 1 1\n2\n4\n0\n20 0 00",
		"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\no0 y\nc\nname\n",
		"aag 2 1 0 1 1\n2\n2\n5 2 2\n",
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAIGER(bytes.NewReader(data))
		if err != nil {
			return
		}
		fuzzRoundTrip(t, g, (*AIG).WriteAIGER, ReadAIGER)
	})
}

// maxFuzzVars caps the variables a binary fuzz input may declare. The
// binary format spends no bytes on inputs, so a ten-byte header can
// legitimately declare hundreds of millions of them; the reader then
// allocates them all, which is correct but would exhaust the fuzzer's
// memory.
const maxFuzzVars = 1 << 16

// FuzzReadAIGERBinary: the binary reader never panics, and whatever it
// accepts survives a write→read→write round trip.
//
//	go test ./internal/aig -run XXX -fuzz '^FuzzReadAIGERBinary$' -fuzztime 10s
func FuzzReadAIGERBinary(f *testing.F) {
	aigerSeeds(f, (*AIG).WriteAIGERBinary, []string{
		"aig 3 1 0 1 1\n2\n",
		"aig 2 1 0 1 1\n9\n\x00\x00",
		"aig 3 2 0 1 1\n6\n\x02\x02i0 a\nc\nname\n",
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		header, _, _ := strings.Cut(string(data), "\n")
		if fields := strings.Fields(header); len(fields) > 1 {
			if m, err := strconv.Atoi(fields[1]); err == nil && m > maxFuzzVars {
				t.Skip("declares more variables than the fuzzer's memory budget")
			}
		}
		g, err := ReadAIGERBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		fuzzRoundTrip(t, g, (*AIG).WriteAIGERBinary, ReadAIGERBinary)
	})
}
