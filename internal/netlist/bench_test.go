package netlist

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkCompile times Compile on a stored mapped netlist, the scaled EPFL
// adder that internal/gsim's digests simulate; run it with -benchmem to see
// the allocations per compiled graph.
func BenchmarkCompile(b *testing.B) {
	f, err := os.Open(filepath.Join("..", "gsim", "testdata", "adder.v.gz"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := ReadVerilog(zr, catalog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(nl); err != nil {
			b.Fatal(err)
		}
	}
}
