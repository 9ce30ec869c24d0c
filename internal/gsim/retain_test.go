//go:build go1.24

// The weak package this test uses arrived in Go 1.24; go.mod allows 1.22.

package gsim

import (
	"context"
	"runtime"
	"testing"
	"weak"
)

// TestResultDoesNotPinModel: a Result keeps the net names it reports, not
// the compiled model, so a caller holding results does not hold graphs.
func TestResultDoesNotPinModel(t *testing.T) {
	for _, c := range []struct {
		name string
		eng  func(*Model) Engine
	}{
		{"levelized", NewLevelized},
		{"event", func(m *Model) Engine { return NewEvent(m, EventOptions{}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, wm, nets := runDropped(t, c.eng)
			runtime.GC()
			if wm.Value() != nil {
				t.Fatal("result keeps its model reachable")
			}
			rates := res.ToggleRates()
			if len(rates) != nets {
				t.Errorf("ToggleRates names %d nets, want %d", len(rates), nets)
			}
			runtime.KeepAlive(res)
		})
	}
}

// runDropped simulates the stored adder netlist, annotated at 10 K, and
// returns the result, a weak pointer to the model and its net count; the
// model and the engine go out of scope on return.
func runDropped(t *testing.T, eng func(*Model) Engine) (*Result, weak.Pointer[Model], int) {
	t.Helper()
	m := readGoldenModel(t, "adder")
	annotateAt(t, m, 10)
	res, err := eng(m).Run(context.Background(), m.RandomVectors(goldenVectors, goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	return res, weak.Make(m), len(m.Nets)
}
