package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
)

// layerAgg accumulates the traced executions of one item tag.
type layerAgg struct {
	items    int
	cpu      float64
	counters map[string]int64
	hists    map[string][2]float64 // sum, count
	spans    map[string]obs.SpanTotal
	self     map[string]float64 // layer -> self seconds
	allocB   float64
	gcCPU    float64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{counters: map[string]int64{}, hists: map[string][2]float64{},
		spans: map[string]obs.SpanTotal{}, self: map[string]float64{}}
}

// histograms read from the obs registry after each traced item.
var tracedHists = []string{"spice.solver.factor.seconds", "spice.solver.solve.seconds"}

func (a *layerAgg) add(reg *obs.Registry, tr *obs.Tracer, cpu, allocB, gcCPU float64) {
	a.items++
	a.cpu += cpu
	a.allocB += allocB
	a.gcCPU += gcCPU
	for k, v := range reg.CounterValues() {
		a.counters[k] += v
	}
	for _, name := range tracedHists {
		h := reg.Histogram(name)
		s := a.hists[name]
		a.hists[name] = [2]float64{s[0] + h.Sum(), s[1] + float64(h.Count())}
	}
	for k, v := range tr.Totals() {
		t := a.spans[k]
		a.spans[k] = obs.SpanTotal{Count: t.Count + v.Count, Total: t.Total + v.Total}
	}
	for layer, sec := range selfTimes(tr) {
		a.self[layer] += sec
	}
}

// selfTimes attributes the traced wall time to layers: each instant goes
// to the innermost open span — the one that started last — so nested spans
// subtract from their parents and spans of goroutines queued behind the
// single worker do not count twice. The total is the time covered by any
// span.
func selfTimes(tr *obs.Tracer) map[string]float64 {
	var buf bytes.Buffer
	var events []struct {
		Name    string
		Ts, Dur float64
	}
	if err := tr.WriteChromeTrace(&buf); err != nil || json.Unmarshal(buf.Bytes(), &events) != nil {
		return nil
	}
	var bounds []float64
	for _, e := range events {
		bounds = append(bounds, e.Ts, e.Ts+e.Dur)
	}
	sort.Float64s(bounds)
	out := map[string]float64{}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		inner := -1
		for j, e := range events {
			if e.Ts <= lo && e.Ts+e.Dur >= hi && (inner < 0 || e.Ts > events[inner].Ts ||
				e.Ts == events[inner].Ts && e.Dur < events[inner].Dur) {
				inner = j
			}
		}
		if inner >= 0 {
			out[layerOf(events[inner].Name)] += (hi - lo) / 1e6
		}
	}
	return out
}

func (a *layerAgg) merge(b *layerAgg) {
	a.items += b.items
	a.cpu += b.cpu
	a.allocB += b.allocB
	a.gcCPU += b.gcCPU
	for k, v := range b.counters {
		a.counters[k] += v
	}
	for k, v := range b.hists {
		s := a.hists[k]
		a.hists[k] = [2]float64{s[0] + v[0], s[1] + v[1]}
	}
	for k, v := range b.spans {
		t := a.spans[k]
		a.spans[k] = obs.SpanTotal{Count: t.Count + v.Count, Total: t.Total + v.Total}
	}
	for k, v := range b.self {
		a.self[k] += v
	}
}

// layerOf maps a span name to its layer: "bench/sta.Analyze" and
// "sta.analyze" both belong to sta.
func layerOf(span string) string {
	span = strings.TrimPrefix(span, "bench/")
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

func (a *layerAgg) span(name string) (count int, seconds float64) {
	t := a.spans[name]
	return t.Count, t.Total.Seconds()
}

// runtimeSample reads the heap allocation total and the GC CPU estimate.
func runtimeSample() (allocB, gcCPU float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocB = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	return allocB, gcCPU
}

// tracedExec is one execution of an item, with what obs recorded when it
// was on.
type tracedExec struct {
	timing
	allocB, gcCPU float64
	reg           *obs.Registry
	tr            *obs.Tracer
	check         func() error
}

// execObserved executes an item once, with the obs registry and tracer on
// when traced is set.
func execObserved(ctx context.Context, it *item, traced bool) (tracedExec, error) {
	var ex tracedExec
	a0, g0 := runtimeSample()
	if traced {
		ex.reg, ex.tr = obs.EnableMetrics(), obs.ResetTracing()
	}
	t, check, err := it.exec(obs.Detach(ctx))
	if traced {
		obs.DisableMetrics()
		obs.DisableTracing()
	}
	a1, g1 := runtimeSample()
	ex.timing, ex.check = t, check
	ex.allocB, ex.gcCPU = a1-a0, g1-g0
	return ex, err
}

// runTraced executes the first n plan items twice each, once with obs off
// and once with metrics and tracing on, alternating which goes first. The
// untraced executions give the tracing overhead; the traced ones give the
// per-layer metrics. Every execution is checked by the item's oracle.
func runTraced(ctx context.Context, out io.Writer, s *sampler, pass passFunc, n int) (*result, error) {
	items := planItems(pass, n)
	byTag := map[string]*layerAgg{}
	var plainWall, tracedWall float64
	failed, attempted := 0, 0
	for i, it := range items {
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			ex, attempts, err := quietest(s, func() (tracedExec, error) {
				return execObserved(ctx, it, traced)
			})
			if err != nil {
				return nil, fmt.Errorf("item %s: %w", it.name, err)
			}
			name := it.name
			if traced {
				name += "/traced"
				tracedWall += ex.wall
				agg := byTag[it.tag]
				if agg == nil {
					agg = newLayerAgg()
					byTag[it.tag] = agg
				}
				agg.add(ex.reg, ex.tr, ex.cpu, ex.allocB, ex.gcCPU)
			} else {
				plainWall += ex.wall
			}
			attempted++
			if !report(out, attempted-1, name, ex.timing, attempts, ex.check()) {
				failed++
			}
		}
	}
	all := newLayerAgg()
	for _, a := range byTag {
		all.merge(a)
	}
	var selfSum float64
	layers := make([]string, 0, len(all.self))
	for l, s := range all.self {
		selfSum += s
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(out, "layer_self_s %s %.6f\n", l, all.self[l])
	}
	m := layerMetrics(all, byTag)
	m["trace_overhead_frac"] = metric{tracedWall/plainWall - 1, "frac"}
	m["layer_coverage"] = metric{selfSum / tracedWall, "frac"}
	for _, temp := range charCorners {
		m["device.eval_ns."+cornerName(temp)] = metric{deviceEvalNs(temp), "ns"}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics. A metric whose layer the
// workload does not exercise reads 0.
func layerMetrics(all *layerAgg, byTag map[string]*layerAgg) map[string]metric {
	c := func(a *layerAgg, name string) float64 { return float64(a.counters[name]) }
	items := float64(all.items)
	m := map[string]metric{}
	for _, temp := range charCorners {
		corner := cornerName(temp)
		a := byTag[corner]
		if a == nil {
			a = newLayerAgg()
		}
		cells, cellS := a.span("bench/charlib.CharacterizeCell")
		m["charlib.cell_s."+corner] = metric{ratio(cellS, float64(cells)), "s"}
		m["spice.newton.iters_per_solve."+corner] = metric{ratio(c(a, "spice.newton.iterations"), c(a, "spice.newton.solves")), "count"}
	}
	cells, _ := all.span("bench/charlib.CharacterizeCell")
	nc := float64(cells)
	m["spice.newton.solves_per_cell"] = metric{ratio(c(all, "spice.newton.solves"), nc), "count"}
	m["spice.fallbacks_per_cell"] = metric{ratio(c(all, "spice.gmin.ladders")+c(all, "spice.temp_continuation.runs")+c(all, "spice.newton.retries"), nc), "count"}
	reuse := c(all, "spice.solver.symbolic.reuse")
	m["spice.solver.symbolic_reuse"] = metric{ratio(reuse, reuse+c(all, "spice.solver.symbolic.builds")), "frac"}
	m["spice.solver.repivots_per_cell"] = metric{ratio(c(all, "spice.solver.repivots"), nc), "count"}
	f := all.hists["spice.solver.factor.seconds"]
	s := all.hists["spice.solver.solve.seconds"]
	m["spice.solver.factor_us"] = metric{1e6 * ratio(f[0], f[1]), "us"}
	m["spice.solver.solve_us"] = metric{1e6 * ratio(s[0], s[1]), "us"}

	perItem := func(span string) float64 {
		_, sec := all.span(span)
		return ratio(sec, items)
	}
	perCall := func(span string) float64 {
		n, sec := all.span(span)
		return ratio(sec, float64(n))
	}
	m["synth.c2rs_s"] = metric{perItem("synth.c2rs"), "s"}
	m["synth.power_stage_s"] = metric{perItem("synth.power_stage"), "s"}
	m["mapper.map_s"] = metric{perItem("mapper.map"), "s"}
	m["sat.solves"] = metric{ratio(c(all, "sat.solves"), items), "count"}
	m["sat.conflicts_per_solve"] = metric{ratio(c(all, "sat.conflicts"), c(all, "sat.solves")), "count"}
	in := c(all, "bench.synth.nodes_in")
	m["synth.nodes_out_ratio"] = metric{ratio(in+c(all, "synth.c2rs.nodes_delta")+c(all, "synth.power_stage.nodes_delta"), in), "ratio"}
	m["alloc_mb_per_item"] = metric{ratio(all.allocB/1e6, items), "MB"}
	m["gc_cpu_frac"] = metric{ratio(all.gcCPU, all.cpu), "frac"}

	_, staS := all.span("sta.analyze")
	m["sta.analyze_s"] = metric{perCall("sta.analyze"), "s"}
	m["sta.ns_per_arc"] = metric{ratio(staS*1e9, c(all, "sta.arcs_evaluated")), "ns"}
	m["sta.analyses_per_item"] = metric{ratio(c(all, "sta.analyses"), items), "count"}
	m["power.analyze_s"] = metric{perCall("power.analyze"), "s"}
	m["synth.resize_s"] = metric{perCall("synth.resize"), "s"}
	_, levS := all.span("gsim.levelized")
	_, evS := all.span("gsim.event")
	m["gsim.levelized_ns_per_gate_vector"] = metric{ratio(levS*1e9, c(all, "bench.gsim.gate_vectors")), "ns"}
	m["gsim.event_ns_per_event"] = metric{ratio(evS*1e9, c(all, "gsim.events")), "ns"}
	m["gsim.events_per_vector"] = metric{ratio(c(all, "gsim.events"), c(all, "bench.gsim.event_vectors")), "count"}
	checks, _ := all.span("cec.check")
	m["cec.check_s"] = metric{perCall("cec.check"), "s"}
	m["cec.sat_calls"] = metric{ratio(c(all, "cec.sat_calls"), float64(checks)), "count"}
	m["cec.merges"] = metric{ratio(c(all, "cec.merges"), float64(checks)), "count"}
	return m
}

// deviceSink keeps the timed evaluations from being optimized away.
var deviceSink float64

// deviceEvalNs times device.(*Model).Conductances over a fixed (Vgs, Vds)
// grid for an N and a P device and returns the median ns per evaluation
// over five repetitions.
func deviceEvalNs(tempK float64) float64 {
	const steps, sweeps, reps = 15, 400, 5
	devs := []*device.Model{device.NewN(2), device.NewP(2)}
	var sink float64
	var runs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			for _, d := range devs {
				sign := 1.0
				if d.Type == device.PFET {
					sign = -1
				}
				for i := 0; i < steps; i++ {
					for j := 0; j < steps; j++ {
						vgs := sign * 0.7 * float64(i) / (steps - 1)
						vds := sign * 0.7 * float64(j) / (steps - 1)
						ids, gm, gds := d.Conductances(vgs, vds, tempK)
						sink += ids + gm + gds
					}
				}
			}
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(sweeps*len(devs)*steps*steps))
	}
	deviceSink = sink
	return median(runs)
}
