package main

import (
	"math"
	"time"
)

// The measuring VM shares its physical cores with other guests, and their
// load changes how fast the same instructions run: over tens of minutes
// the same plan took 15-24 s of clock time, drifting with the neighbours'
// load. So before every measured execution the sampler times a fixed
// probe — benchmark code that no change to the flow touches — and a run
// reports its times scaled by probeRef over the mean probe time: seconds
// of a host that runs the probe in probeRef. The mean, not the minimum,
// because a sibling hyperthread that is busy part of the time slows the
// program by that part too.
const (
	probeRef     = 0.5e-3
	probeSamples = 4
)

// probeTable is the probe's working set: 256 KiB of pseudo-random indices.
var probeTable = func() []uint32 {
	t := make([]uint32, 1<<16)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x & (1<<16 - 1)
	}
	return t
}()

var probeSink float64

// probeOnce runs the fixed probe work — dependent table walks and
// transcendental arithmetic, the two kinds of work the flow's layers do —
// and returns its wall time, about 0.5 ms.
func probeOnce() float64 {
	t0 := time.Now()
	j := uint32(0)
	acc := 0.0
	for i := 0; i < 15000; i++ {
		j = probeTable[j]
		acc += math.Log1p(float64(j)) * math.Exp(-float64(i&63)/64)
	}
	probeSink += acc
	return time.Since(t0).Seconds()
}

// probe adds probeSamples probe timings to the run's tally.
func (s *sampler) probe() {
	for i := 0; i < probeSamples; i++ {
		s.probeS += probeOnce()
		s.probes++
	}
}

// speedFactor converts the run's clock times to reference-host seconds.
func (s *sampler) speedFactor() float64 {
	if s.probes == 0 {
		return 1
	}
	return probeRef / (s.probeS / float64(s.probes))
}
