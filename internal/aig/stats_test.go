package aig

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestPassDeltasAreGauges: the signed per-pass node and depth deltas are
// exported as gauges, so a pass that shrinks the network shows its negative
// delta under a metric type that allows one.
func TestPassDeltasAreGauges(t *testing.T) {
	obs.DisableMetrics()
	reg := obs.EnableMetrics()
	defer obs.DisableMetrics()

	g := New("dup")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	g.AddPO(g.And(g.And(a, b), c), "x")
	g.AddPO(g.And(a, g.And(b, c)), "y")
	if r := g.Resub(1); r.NumNodes() >= g.NumNodes() {
		t.Fatalf("resub did not shrink the network: %d -> %d nodes", g.NumNodes(), r.NumNodes())
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range []string{"aig_pass_resub_nodes_delta", "aig_pass_resub_depth_delta"} {
		if !strings.Contains(out, "# TYPE "+m+" gauge\n") {
			t.Errorf("%s is not typed gauge:\n%s", m, out)
		}
	}
	if !strings.Contains(out, "\naig_pass_resub_nodes_delta -") {
		t.Errorf("resub nodes delta is not negative:\n%s", out)
	}
}
