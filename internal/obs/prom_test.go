package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("spice.newton.iterations").Add(104224)
	r.Gauge("synth.map-area").Set(1294)
	h := r.Histogram("charlib.cell.seconds")
	h.Observe(0.5)
	h.Observe(1.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE spice_newton_iterations counter",
		"spice_newton_iterations 104224",
		"# TYPE synth_map_area gauge",
		"synth_map_area 1294",
		"# TYPE charlib_cell_seconds summary",
		"charlib_cell_seconds_count 2",
		"charlib_cell_seconds_sum 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `charlib_cell_seconds{quantile="0.5"}`) {
		t.Errorf("missing p50 quantile line:\n%s", out)
	}

	// Every non-comment line must match the exposition grammar.
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "#") {
		t.Errorf("nil registry output should be a comment, got %q", buf.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"spice.newton.iterations": "spice_newton_iterations",
		"a-b c":                   "a_b_c",
		"9lives":                  "_9lives",
		"ok_name:x":               "ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
