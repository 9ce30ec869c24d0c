package obs

import (
	"bytes"
	"context"
	"net/http/httptest"
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

// TestObsMuxEndpoints exercises the -obs-addr handler without binding a
// real port: /metrics must serve Prometheus text and /spans the live span
// summary.
func TestObsMuxEndpoints(t *testing.T) {
	defer DisableMetrics()
	defer DisableTracing()
	EnableMetrics()
	EnableTracing()
	C("mux.test.counter").Add(11)
	_, s := Start(context.Background(), "mux.test.span")
	s.End()

	mux := obsMux()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q, want prometheus 0.0.4", ct)
	}
	if !strings.Contains(rec.Body.String(), "mux_test_counter 11") {
		t.Errorf("/metrics missing counter:\n%s", rec.Body.String())
	}

	if body := get("/spans").Body.String(); !strings.Contains(body, "mux.test.span") {
		t.Errorf("/spans missing span:\n%s", body)
	}

	if code := get("/nope").Code; code != 404 {
		t.Errorf("unknown path returned %d, want 404", code)
	}
}
