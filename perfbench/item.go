package main

import (
	"context"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/obs"
)

// item is one unit of user-visible work. run performs the program's public
// calls and returns the oracle that checks what they produced; the oracle
// runs outside the timed region.
type item struct {
	name string
	tag  string // per-layer grouping key, e.g. the corner
	run  func(ctx context.Context) (check func() error, err error)
}

// timing is one measured execution: wall time and process CPU time
// (user+sys, every thread, so GC work on the second core counts).
type timing struct {
	wall, cpu float64
}

// raw is the wall time the steal sampler judges.
func (t timing) raw() float64 { return t.wall }

// exec times one execution of the item.
func (it *item) exec(ctx context.Context) (timing, func() error, error) {
	var check func() error
	t, err := timed(func() (err error) {
		check, err = it.run(ctx)
		return err
	})
	return t, check, err
}

// timed runs f and returns its timing.
func timed(f func() error) (timing, error) {
	c0 := cpuSeconds()
	t0 := time.Now()
	err := f()
	return timing{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}, err
}

// passFunc returns the items of pass p. Passes are deterministic in the
// workload seed and p.
type passFunc func(p int) []*item

// workload describes one benchmark workload.
type workload struct {
	// passSeconds is the nominal wall time of one pass with the seed code on
	// a 2-core x86-64 host, rounded so that 25 s plans whole passes; with
	// passItems it converts --seconds into a fixed item count.
	passSeconds float64
	passItems   int
	// pairs keeps (cell, 300 K, 10 K) item pairs whole when a plan is cut.
	pairs bool
	setup func(ctx context.Context, seed int64) (passFunc, error)
}

var workloads = map[string]*workload{
	"char2corner": {passSeconds: 25, passItems: 2 * len(charSlots), pairs: true, setup: setupChar},
	"synth_fig3":  {passSeconds: 6.25, passItems: len(fig3Circuits), setup: setupFig3},
	"signoff":     {passSeconds: 25.0 / 3, passItems: 2 * len(signoffCircuits), setup: setupSignoff},
}

// call wraps one call into a layer's public function in a benchmark span,
// so the traced run can attribute time to the layer even where the layer
// records no span of its own. With tracing off obs.Start is a no-op.
func call[T any](ctx context.Context, name string, f func(context.Context) (T, error)) (T, error) {
	ctx, sp := obs.Start(ctx, "bench/"+name)
	defer sp.End()
	return f(ctx)
}

// passRand is the random source of one pass: a function of the workload
// seed and the pass index only.
func passRand(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p)*7919 + 17))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
