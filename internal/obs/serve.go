package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
)

// obsMux builds the -obs-addr handler: Prometheus metrics, live progress,
// the span summary, health and build probes, and pprof.
// Handlers read the global registry/tracer at request time, so they follow
// the run as it progresses.
func obsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		SampleRuntimeMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := Metrics().WritePrometheus(w); err != nil {
			Log().Errorf("obs: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime=%s\n", Uptime().Round(1e6))
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(BuildInfo()); err != nil {
			Log().Errorf("obs: /buildinfo: %v", err)
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteProgressJSON(w); err != nil {
			Log().Errorf("obs: /progress: %v", err)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := Tracing().WriteSummary(w); err != nil {
			Log().Errorf("obs: /spans: %v", err)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "cryo-EDA observability endpoint")
		fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
		fmt.Fprintln(w, "  /progress       live per-stage progress (done/total/rate/ETA, JSON)")
		fmt.Fprintln(w, "  /spans          live span-tree summary")
		fmt.Fprintln(w, "  /healthz        liveness probe (ok + uptime)")
		fmt.Fprintln(w, "  /buildinfo      build provenance + enabled telemetry (JSON)")
		fmt.Fprintln(w, "  /debug/pprof/   net/http/pprof")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BuildInfoReport is the /buildinfo payload: enough provenance to tie a
// scraped metric stream back to the binary that produced it.
type BuildInfoReport struct {
	GoVersion   string  `json:"go_version"`
	Module      string  `json:"module,omitempty"`
	VCSRevision string  `json:"vcs_revision,omitempty"`
	VCSTime     string  `json:"vcs_time,omitempty"`
	VCSModified bool    `json:"vcs_modified,omitempty"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	UptimeSec   float64 `json:"uptime_seconds"`
	Telemetry   struct {
		Metrics bool `json:"metrics"`
		Tracing bool `json:"tracing"`
		Journal bool `json:"journal"`
	} `json:"telemetry"`
}

// BuildInfo assembles the build provenance report from
// debug.ReadBuildInfo and the current telemetry state.
func BuildInfo() *BuildInfoReport {
	r := &BuildInfoReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		UptimeSec: Uptime().Seconds(),
	}
	r.Telemetry.Metrics = MetricsEnabled()
	r.Telemetry.Tracing = Tracing() != nil
	r.Telemetry.Journal = JournalEnabled()
	if bi, ok := debug.ReadBuildInfo(); ok {
		r.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.VCSRevision = s.Value
			case "vcs.time":
				r.VCSTime = s.Value
			case "vcs.modified":
				r.VCSModified = s.Value == "true"
			}
		}
	}
	return r
}

// serveObs enables metrics, tracing, and progress (the endpoint is useless
// without them) and serves the observability mux on addr in the background.
func serveObs(addr string) error {
	EnableMetrics()
	EnableTracing()
	EnableProgress()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: exposition listen on %s: %w", addr, err)
	}
	Log().Infof("obs: metrics exposition on http://%s/metrics", ln.Addr())
	go func() {
		if err := http.Serve(ln, obsMux()); err != nil {
			Log().Errorf("obs: exposition server: %v", err)
		}
	}()
	return nil
}
