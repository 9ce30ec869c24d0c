package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/charlib"
	"repro/internal/liberty"
	"repro/internal/pdk"
)

// charSlots is one char2corner pass; the seed draws each slot's drive
// strength. CPU seconds per cell for both corners, single worker, 2-core
// x86-64, spread over drives: INV 0.25-0.33, NAND2/NOR2 0.95-1.17, AOI21
// 2.2-2.7, XOR2 2.5-2.7, MUX2 3.6-4.0, AOI22 4.1-4.3, DFF 6.7-7.5. FA is
// left out: one FA item takes 10-12 s and would dominate the run. The
// first six slots are the traced run's half plan and cost about as much as
// the last six.
var charSlots = []string{
	"INV", "AOI22", "NAND2", "MUX2", "NOR2", "AOI21",
	"INV", "DFF", "NAND2", "XOR2", "INV", "NOR2",
}

// charCorners are the paper's two characterization temperatures (K).
var charCorners = []float64{300, 10}

// Reference tables agree with the seed-recorded reference within this
// relative tolerance (plus charAbsTol seconds for near-zero delays). A warm
// start moves a 50% crossing by a fraction of one transient time step,
// well inside 1%; a wrong device model or solve moves it by far more.
const (
	charRelTol = 0.01
	charAbsTol = 0.1e-12
)

//go:embed reference/char.json
var charReferenceJSON []byte

// charRef is the seed-recorded reference for one (cell, corner): leakage
// (W) and every timing table keyed by arc, in whole femtoseconds.
type charRef struct {
	Leakage float64              `json:"leakage"`
	Arcs    map[string][][]int64 `json:"arcs"`
}

func charConfig(tempK float64) charlib.Config {
	cfg := charlib.DefaultConfig(tempK)
	cfg.Workers = 1
	return cfg
}

func cornerName(tempK float64) string { return fmt.Sprintf("%gK", tempK) }

// charFamily lists a family's catalog cells in drive order.
func charFamily(catalog []*pdk.Cell, base string) []*pdk.Cell {
	var out []*pdk.Cell
	for _, c := range catalog {
		if c.Base == base {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Drive < out[j].Drive })
	return out
}

// setupChar builds the cell catalog and characterizes one small warm-up
// cell, the work a characterization run pays once.
func setupChar(ctx context.Context, seed int64) (passFunc, error) {
	var refs map[string]charRef
	if err := json.Unmarshal(charReferenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("char reference: %w", err)
	}
	catalog := pdk.Catalog()
	families := map[string][]*pdk.Cell{}
	for _, base := range charSlots {
		families[base] = charFamily(catalog, base)
		if len(families[base]) == 0 {
			return nil, fmt.Errorf("no %s cells in the catalog", base)
		}
	}
	warm := families["INV"][0]
	if _, err := charlib.CharacterizeCell(ctx, warm, charConfig(300)); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", warm.Name, err)
	}
	return func(p int) []*item {
		rng := passRand(seed, p)
		var items []*item
		for _, base := range charSlots {
			fam := families[base]
			cell := fam[rng.Intn(len(fam))]
			items = append(items, charItems(cell, refs)...)
		}
		return items
	}, nil
}

// charItems returns the (cell, 300 K) and (cell, 10 K) items of one cell.
// The 10 K oracle also checks that leakage fell below the 300 K value.
func charItems(cell *pdk.Cell, refs map[string]charRef) []*item {
	leak300 := math.NaN()
	var items []*item
	for _, temp := range charCorners {
		temp := temp
		key := cell.Name + "@" + cornerName(temp)
		items = append(items, &item{
			name: key,
			tag:  cornerName(temp),
			run: func(ctx context.Context) (func() error, error) {
				lc, err := call(ctx, "charlib.CharacterizeCell", func(ctx context.Context) (*liberty.Cell, error) {
					return charlib.CharacterizeCell(ctx, cell, charConfig(temp))
				})
				if err != nil {
					return nil, err
				}
				return func() error {
					if temp == 300 {
						leak300 = lc.LeakagePower
					} else if !(lc.LeakagePower < leak300) {
						return fmt.Errorf("10 K leakage %g not below 300 K leakage %g", lc.LeakagePower, leak300)
					}
					return checkCharCell(lc, refs[key])
				}, nil
			},
		})
	}
	return items
}

// checkCharCell is the char2corner oracle for one characterized cell.
func checkCharCell(lc *liberty.Cell, ref charRef) error {
	lib := &liberty.Library{Name: "check", Cells: []*liberty.Cell{lc}}
	if err := lib.Validate(); err != nil {
		return err
	}
	tables := charTables(lc)
	if len(tables) == 0 {
		return fmt.Errorf("%s has no timing tables", lc.Name)
	}
	for key, t := range tables {
		for i, row := range t.Values {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					return fmt.Errorf("%s %s[%d][%d] = %g: want finite and positive", lc.Name, key, i, j, v)
				}
				if j > 0 && v < row[j-1]*(1-charRelTol)-charAbsTol {
					return fmt.Errorf("%s %s row %d falls with load: %g after %g", lc.Name, key, i, v, row[j-1])
				}
			}
		}
	}
	if ref.Arcs == nil {
		return fmt.Errorf("%s: no reference tables", lc.Name)
	}
	if !near(lc.LeakagePower, ref.Leakage, 0) {
		return fmt.Errorf("%s leakage %g, reference %g", lc.Name, lc.LeakagePower, ref.Leakage)
	}
	if len(tables) != len(ref.Arcs) {
		return fmt.Errorf("%s has %d timing tables, reference %d", lc.Name, len(tables), len(ref.Arcs))
	}
	for key, t := range tables {
		want, ok := ref.Arcs[key]
		if !ok || len(want) != len(t.Values) {
			return fmt.Errorf("%s %s: shape differs from the reference", lc.Name, key)
		}
		for i, row := range t.Values {
			if len(want[i]) != len(row) {
				return fmt.Errorf("%s %s: shape differs from the reference", lc.Name, key)
			}
			for j, v := range row {
				if ref := float64(want[i][j]) * 1e-15; !near(v, ref, charAbsTol) {
					return fmt.Errorf("%s %s[%d][%d] = %g, reference %g", lc.Name, key, i, j, v, ref)
				}
			}
		}
	}
	return nil
}

func near(got, want, abs float64) bool {
	return math.Abs(got-want) <= charRelTol*math.Abs(want)+abs
}

// charTables names every delay and transition table of a cell.
func charTables(lc *liberty.Cell) map[string]*liberty.Table {
	out := map[string]*liberty.Table{}
	for _, pin := range lc.Outputs() {
		for _, tm := range pin.Timings {
			prefix := pin.Name + "/" + tm.RelatedPin + "/" + tm.Type + "/"
			for name, t := range map[string]*liberty.Table{
				"cell_rise": tm.CellRise, "cell_fall": tm.CellFall,
				"rise_transition": tm.RiseTrans, "fall_transition": tm.FallTrans,
			} {
				if t != nil {
					out[prefix+name] = t
				}
			}
		}
	}
	return out
}

// recordCharReference characterizes every drive of every char2corner
// family at both corners and writes the reference the oracle compares
// against. Run it only on the seed code: the reference must never come
// from the code under test.
func recordCharReference(ctx context.Context, path string, log io.Writer) error {
	catalog := pdk.Catalog()
	refs := map[string]charRef{}
	seen := map[string]bool{}
	for _, base := range charSlots {
		if seen[base] {
			continue
		}
		seen[base] = true
		for _, cell := range charFamily(catalog, base) {
			for _, temp := range charCorners {
				lc, err := charlib.CharacterizeCell(ctx, cell, charConfig(temp))
				if err != nil {
					return fmt.Errorf("%s at %g K: %w", cell.Name, temp, err)
				}
				ref := charRef{Leakage: lc.LeakagePower, Arcs: map[string][][]int64{}}
				for key, t := range charTables(lc) {
					fs := make([][]int64, len(t.Values))
					for i, row := range t.Values {
						for _, v := range row {
							fs[i] = append(fs[i], int64(math.Round(v*1e15)))
						}
					}
					ref.Arcs[key] = fs
				}
				refs[cell.Name+"@"+cornerName(temp)] = ref
				fmt.Fprintf(log, "recorded %s@%s\n", cell.Name, cornerName(temp))
			}
		}
	}
	b, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
