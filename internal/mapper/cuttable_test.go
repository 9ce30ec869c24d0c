package mapper

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/netlist"
)

func verilogBytes(t *testing.T, nl *netlist.Netlist) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := nl.WriteVerilog(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCutTableSharedMatchesFresh maps each circuit in every mode against
// the 300 K and the 10 K library from one shared cut table, filled once,
// and once more after a Release, and requires each netlist to be
// byte-identical to standalone Map's, which enumerates its own cuts.
func TestCutTableSharedMatchesFresh(t *testing.T) {
	ctx := context.Background()
	libs := []*MatchLibrary{buildML(t, 300), buildML(t, 10)}
	modes := []CostMode{Baseline, PowerAreaDelay, PowerDelayArea}
	for _, name := range []string{"ctrl", "router", "int2float", "dec", "cavlc"} {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		table := NewCutTable(g)
		check := func(li int, mode CostMode) {
			opt := Options{Mode: mode, K: 5}
			fresh, err := Map(ctx, g, libs[li], opt)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := MapTable(ctx, table, libs[li], opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(verilogBytes(t, shared), verilogBytes(t, fresh)) {
				t.Errorf("%s, library %d, %v: shared-table netlist differs from Map's", name, li, mode)
			}
		}
		for li := range libs {
			for _, mode := range modes {
				check(li, mode)
			}
		}
		table.Release()
		check(1, PowerDelayArea)
	}
}

// TestCutTableConcurrent maps one shared table from several goroutines at
// once, one of them releasing it between mappings, and requires every
// netlist to match standalone Map's (run it under -race).
func TestCutTableConcurrent(t *testing.T) {
	ctx := context.Background()
	ml := buildML(t, 10)
	g, err := epfl.Build("int2float")
	if err != nil {
		t.Fatal(err)
	}
	modes := []CostMode{Baseline, PowerAreaDelay, PowerDelayArea}
	want := make([][]byte, len(modes))
	for i, mode := range modes {
		nl, err := Map(ctx, g, ml, Options{Mode: mode, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = verilogBytes(t, nl)
	}
	table := NewCutTable(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (w + r) % len(modes)
				nl, err := MapTable(ctx, table, ml, Options{Mode: modes[i], K: 5})
				if err != nil {
					t.Error(err)
					return
				}
				var b bytes.Buffer
				if err := nl.WriteVerilog(&b); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), want[i]) {
					t.Errorf("worker %d, %v: shared-table netlist differs from Map's", w, modes[i])
				}
				if w == 0 {
					table.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSharedLibraryOrderIndependent maps several circuits in every mode
// through one match library in one order and through a second, fresh
// library in the reverse order, and requires byte-identical netlists: what
// the library's memo holds from earlier circuits never changes a cover.
func TestSharedLibraryOrderIndependent(t *testing.T) {
	ctx := context.Background()
	names := []string{"ctrl", "router", "int2float", "dec", "cavlc", "i2c"}
	modes := []CostMode{Baseline, PowerAreaDelay, PowerDelayArea}
	graphs := make([]*aig.AIG, len(names))
	for i, name := range names {
		g, err := epfl.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	mapAll := func(order []int) map[string][]byte {
		ml := buildML(t, 10)
		out := map[string][]byte{}
		for _, i := range order {
			for _, mode := range modes {
				nl, err := Map(ctx, graphs[i], ml, Options{Mode: mode, K: 5})
				if err != nil {
					t.Fatal(err)
				}
				out[names[i]+" "+mode.String()] = verilogBytes(t, nl)
			}
		}
		return out
	}
	forward := mapAll([]int{0, 1, 2, 3, 4, 5})
	reverse := mapAll([]int{5, 4, 3, 2, 1, 0})
	for key, want := range forward {
		if !bytes.Equal(reverse[key], want) {
			t.Errorf("%s: netlist depends on the order circuits share the library in", key)
		}
	}
}
