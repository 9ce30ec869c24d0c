// Command perfbench is the cryo flow's layered performance benchmark. It
// runs one workload per process — char2corner (two-corner SPICE
// characterization, the paper's Fig. 2), synth_fig3 (the Fig. 3
// cryogenic-aware synthesis comparison) or signoff (STA, power, sizing,
// simulation and equivalence checking on fixed mapped netlists) — with one
// worker, checks every item's output against an independent oracle, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload char2corner --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics with the observability layer
// off, scaled by the run's host speed factor (speed.go). --trace 1 runs half the item plan twice, once with obs off and once
// with it on, and reports the per-layer metrics read from the obs registry,
// obs span totals and the benchmark's own spans around each public call.
// See README.md for the workloads, the metric map and the noise evidence.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload: char2corner, synth_fig3 or signoff")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "nominal measuring time; sets the size of the item plan")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with obs off; 1: per-layer metrics from a traced run")
	record := flag.String("record-reference", "", "characterize every char2corner cell at both corners and write the reference tables to this file, then exit")
	flag.Parse()

	if *record != "" {
		if err := recordCharReference(context.Background(), *record, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), os.Stdout, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// A run sets its workload up at least minSetups times and, while the
// set-ups have taken less than setupBudget seconds, up to maxSetups times;
// setup_s is the median, so one cold or disturbed set-up cannot move it.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 3.0
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, executes its item plan, checks every item and
// returns the metrics. Raw per-item lines and the host-noise record go to
// out ahead of the result.
func run(ctx context.Context, out io.Writer, name string, seed int64, seconds float64, traced bool) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want char2corner, synth_fig3 or signoff)", name)
	}
	host := startHostRecord()
	s := newSampler(seconds)
	var setups []float64
	var pass passFunc
	for spent := 0.0; len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget; {
		var p passFunc
		t, _, err := quietest(s, func() (timing, error) {
			return timed(func() (err error) {
				p, err = wl.setup(ctx, seed)
				return err
			})
		})
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, t.wall)
		spent += t.wall
		pass = p
	}
	runtime.GC()
	fmt.Fprintf(out, "setup_s runs %v\n", setups)

	var res *result
	var err error
	if traced {
		// Each traced-run item executes twice, so half the plan keeps the
		// run as long as an untraced one.
		res, err = runTraced(ctx, out, s, pass, planSize(wl, seconds/2))
	} else {
		res, err = runTimed(ctx, out, s, pass, planSize(wl, seconds))
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups) * s.speedFactor(), "s"}
	}
	host.finish(out, s.reruns)
	return res, nil
}

// planSize converts the nominal measuring time into a fixed item count, so
// a run does the same work however fast the program is: a faster program
// finishes sooner instead of doing more items. char2corner plans whole
// (cell, 300 K, 10 K) pairs.
func planSize(wl *workload, seconds float64) int {
	n := int(seconds/wl.passSeconds*float64(wl.passItems) + 0.5)
	if wl.pairs {
		n -= n % 2
		if n < 2 {
			n = 2
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// planItems lays out n items from successive passes.
func planItems(pass passFunc, n int) []*item {
	var items []*item
	for p := 0; len(items) < n; p++ {
		items = append(items, pass(p)...)
	}
	return items[:n]
}

// execution is what one timed run of an item leaves behind.
type execution struct {
	timing
	check func() error
}

func execQuiet(ctx context.Context, s *sampler, it *item) (execution, int, error) {
	return quietest(s, func() (execution, error) {
		t, check, err := it.exec(ctx)
		return execution{t, check}, err
	})
}

// runTimed executes the plan with obs off and reports end-to-end metrics.
// Each item's wall and CPU time cover only the program's public calls; the
// oracle checks run after the timed phase.
func runTimed(ctx context.Context, out io.Writer, s *sampler, pass passFunc, n int) (*result, error) {
	items := planItems(pass, n)
	durs := make([]float64, len(items))
	execs := make([]execution, len(items))
	attempts := make([]int, len(items))
	var wall, cpu float64
	for i, it := range items {
		ex, k, err := execQuiet(ctx, s, it)
		if err != nil {
			return nil, fmt.Errorf("item %s: %w", it.name, err)
		}
		durs[i], execs[i], attempts[i] = ex.wall, ex, k
		wall += ex.wall
		cpu += ex.cpu
	}
	failed := 0
	for i, it := range items {
		if !report(out, i, it.name, execs[i].timing, attempts[i], execs[i].check()) {
			failed++
		}
	}
	tail, pct := tailOf(durs)
	f := s.speedFactor()
	fmt.Fprintf(out, "item_tail_s is p%d of %d items\n", pct, len(durs))
	fmt.Fprintf(out, "speed factor %.6f from %d probes; clock wall_s %.6f s\n", f, s.probes, wall)
	return &result{
		Correct:   failed == 0,
		Attempted: len(items),
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":      {wall * f, "s"},
			"cpu_s":       {cpu * f, "s"},
			"throughput":  {float64(len(items)) / (wall * f), "items/s"},
			"item_p50_s":  {median(durs) * f, "s"},
			"item_tail_s": {tail * f, "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}, nil
}

// report prints one raw item line — its clock wall time, how many
// executions the sampler needed, and the oracle verdict — and returns
// whether the oracle passed.
func report(out io.Writer, i int, name string, t timing, attempts int, err error) bool {
	status := "ok"
	if err != nil {
		status = "FAIL " + err.Error()
	}
	fmt.Fprintf(out, "item %d %s %.6f s attempts=%d %s\n", i, name, t.wall, attempts, status)
	return err == nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailOf returns the highest percentile of v with at least ten items
// beyond it, and that percentile; with ten items or fewer it returns the
// maximum as p100.
func tailOf(v []float64) (float64, int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1], 100
	}
	k := len(s) - 11
	return s[k], 100 * (k + 1) / len(s)
}
