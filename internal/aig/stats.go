package aig

import (
	"time"

	"repro/internal/obs"
)

// startPass opens per-pass telemetry for an optimization pass and returns
// the closure to call with the pass output. Recorded per pass name: run
// count, cumulative node and depth deltas as gauges (negative = the pass
// shrank the network), and a wall-time histogram. When metrics are disabled the
// closure is a no-op and nothing — not even the input depth — is computed.
func startPass(pass string, in *AIG) func(out *AIG) {
	if !obs.MetricsEnabled() {
		return func(*AIG) {}
	}
	t0 := time.Now()
	nodesIn, depthIn := in.NumNodes(), in.Depth()
	return func(out *AIG) {
		prefix := "aig.pass." + pass
		obs.C(prefix + ".runs").Inc()
		obs.G(prefix + ".nodes_delta").Add(float64(out.NumNodes() - nodesIn))
		obs.G(prefix + ".depth_delta").Add(float64(out.Depth() - depthIn))
		obs.H(prefix + ".seconds").Observe(time.Since(t0).Seconds())
	}
}
