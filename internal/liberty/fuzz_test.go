package liberty_test

import (
	"bytes"
	"testing"

	"repro/internal/liberty"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

// FuzzParseLiberty: Parse always returns (no hang, no panic), and for every
// input it accepts, write→parse→write reproduces the first write byte for
// byte.
//
//	go test ./internal/liberty -run XXX -fuzz '^FuzzParseLiberty$' -fuzztime 10s
func FuzzParseLiberty(f *testing.F) {
	lib, _ := testlib.Build(pdk.Catalog(), testlib.Names()[:1], 10)
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`library (x) { cell (INV) { ar(Aea : 1; pin (A) { direction : input; } } }`,
		`library (x) { cell ("a)b") { pin (A) { direction : "in put"; } } }`,
		`library (;`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := liberty.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := lib.Write(&first); err != nil {
			t.Fatalf("write of an accepted library: %v", err)
		}
		back, err := liberty.Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written library: %v\n%s", err, first.Bytes())
		}
		if err := back.Write(&second); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→parse→write changed the library:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
