package gsim

import (
	"testing"

	"repro/internal/netlist"
)

// chunkCounts are the chunk counts TestEventChunkDigest compares with one
// chunk: uneven splits, and one vector per chunk at 64.
var chunkCounts = []int{2, 3, 7, 64}

// TestEventChunkDigest checks that splitting an event run into vector chunks
// is exact: on every stored netlist, unit-delay and annotated at 300 K and
// 10 K, each chunk count yields the one-chunk result digest.
func TestEventChunkDigest(t *testing.T) {
	for _, name := range goldenCircuits {
		for _, mode := range goldenModes {
			m := readGoldenModel(t, name)
			if mode.tempK != 0 {
				annotateAt(t, m, mode.tempK)
			}
			vectors := m.RandomVectors(goldenVectors, goldenSeed)
			want := chunkDigest(t, m, vectors, 1)
			for _, n := range chunkCounts {
				if got := chunkDigest(t, m, vectors, n); got != want {
					t.Errorf("%s %s: %d chunks digest %s, one chunk %s", name, mode.name, n, got, want)
				}
			}
		}
	}
}

// TestEventChunkSourceGate runs a model with a gate without inputs, which a
// serial run never evaluates: its net stays X, and so does the AND it feeds
// whenever the other input is 1. A chunked run must fall back to one chunk
// rather than seed the gate's two-valued SimWords value.
func TestEventChunkSourceGate(t *testing.T) {
	const a, tie, y = 2, 3, 4
	m := &Model{Graph: &netlist.Graph{
		Name: "tie",
		Nets: []string{netlist.Const0, netlist.Const1, "a", "tie", "y"},
		Gates: []netlist.Node{
			{Name: "u0", Truth: 1, Out: tie},
			{Name: "u1", Truth: 0b1000, In: []int32{a, tie}, Out: y, Level: 1},
		},
		Inputs:      []int32{a},
		InputNames:  []string{"a"},
		Outputs:     []int32{y},
		OutputNames: []string{"y"},
		Fanouts:     [][]int32{nil, nil, {1}, {1}, nil},
		Driver:      []int32{-1, -1, -1, 0, 1},
	}}
	vectors := m.RandomVectors(64, goldenSeed)
	one, err := runChunked(m, vectors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Final[tie] != VX {
		t.Fatalf("serial run settled the source gate to %s, want x", one.Final[tie])
	}
	want := resultDigest(one)
	for _, n := range chunkCounts {
		if got := chunkDigest(t, m, vectors, n); got != want {
			t.Errorf("%d chunks digest %s, one chunk %s", n, got, want)
		}
	}
}

func chunkDigest(t *testing.T, m *Model, vectors []Vector, chunks int) string {
	t.Helper()
	res, err := runChunked(m, vectors, chunks)
	if err != nil {
		t.Fatalf("%s, %d chunks: %v", m.Name, chunks, err)
	}
	return resultDigest(res)
}
