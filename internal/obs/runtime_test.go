package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

func TestSampleRuntimeMetricsDisabledIsNoOp(t *testing.T) {
	DisableMetrics()
	SampleRuntimeMetrics() // must not panic or install a registry
	if MetricsEnabled() {
		t.Fatal("sampling installed a registry")
	}
}

func TestSampleRuntimeMetrics(t *testing.T) {
	defer DisableMetrics()
	EnableMetrics()
	runtime.GC() // guarantee at least one new pause for the histogram
	SampleRuntimeMetrics()

	if g := G("runtime.goroutines").Value(); g < 1 {
		t.Errorf("runtime.goroutines = %g, want >= 1", g)
	}
	if h := G("runtime.heap_alloc_bytes").Value(); h <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %g, want > 0", h)
	}
	if c := G("runtime.gc_count").Value(); c < 1 {
		t.Errorf("runtime.gc_count = %g, want >= 1", c)
	}
	pauses := H("runtime.gc_pause_seconds").Count()
	if pauses < 1 {
		t.Errorf("gc pause histogram empty after forced GC")
	}

	// Re-sampling without new GCs must not double-count pauses. (Guard on
	// the GC count in case the runtime collected between the samples.)
	gcBefore := G("runtime.gc_count").Value()
	SampleRuntimeMetrics()
	if G("runtime.gc_count").Value() == gcBefore {
		if again := H("runtime.gc_pause_seconds").Count(); again != pauses {
			t.Errorf("pause count moved %d -> %d without a GC", pauses, again)
		}
	}
}

// TestRunStartBuildAttrs: run.start carries the binary name, the Go
// version and the build's VCS revision and dirty bit, and leaves out what
// the build info lacks (go run and go test stamp no vcs.* settings).
func TestRunStartBuildAttrs(t *testing.T) {
	stamped := &debug.BuildInfo{GoVersion: "go1.99", Settings: []debug.BuildSetting{
		{Key: "vcs", Value: "git"},
		{Key: "vcs.revision", Value: "0123456789abcdef"},
		{Key: "vcs.time", Value: "2026-01-02T03:04:05Z"},
		{Key: "vcs.modified", Value: "true"},
	}}
	unstamped := &debug.BuildInfo{GoVersion: "go1.99", Settings: []debug.BuildSetting{
		{Key: "-compiler", Value: "gc"},
	}}
	for _, tc := range []struct {
		name string
		bi   *debug.BuildInfo
		want map[string]string
	}{
		{"stamped", stamped, map[string]string{"bin": "cryox", "go": "go1.99",
			"vcs.revision": "0123456789abcdef", "vcs.modified": "true"}},
		{"unstamped", unstamped, map[string]string{"bin": "cryox", "go": "go1.99"}},
		{"no build info", nil, map[string]string{"bin": "cryox"}},
	} {
		if got := runStartAttrs("cryox", tc.bi); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: attrs = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMetricsExpositionIncludesRuntime: the -metrics file is Prometheus
// text exposition, refreshed with the runtime gauges at flush. Every
// sample line is `name{quantile="q"}? value` under an earlier # TYPE line
// for its metric; histograms render as summaries.
func TestMetricsExpositionIncludesRuntime(t *testing.T) {
	freshMetrics(t)
	C("spice.newton.iterations").Add(7)
	G("synth.map.area").Set(2.5)
	H("charlib.cell.seconds").Observe(0.5)
	H("charlib.cell.seconds").Observe(1.5)
	path := filepath.Join(t.TempDir(), "metrics.prom")
	(&Flags{MetricsPath: path}).Flush()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{quantile="[0-9.]+"\})? (\S+)$`)
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("sample %q: value: %v", line, err)
		}
		name := m[1]
		if typed[name] == "" {
			name = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		}
		if typed[name] == "" {
			t.Errorf("sample %q has no earlier # TYPE line", line)
		}
	}
	for name, typ := range map[string]string{
		"spice_newton_iterations": "counter",
		"synth_map_area":          "gauge",
		"runtime_goroutines":      "gauge",
		"charlib_cell_seconds":    "summary",
	} {
		if typed[name] != typ {
			t.Errorf("# TYPE %s = %q, want %q:\n%s", name, typed[name], typ, out)
		}
	}
	for _, want := range []string{
		"spice_newton_iterations 7",
		`charlib_cell_seconds{quantile="0.5"}`,
		"charlib_cell_seconds_sum 2",
		"charlib_cell_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
