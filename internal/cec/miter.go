package cec

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/aig"
	"repro/internal/obs"
	"repro/internal/sat"
)

// runCheck drives the engine over a prepared joint miter: sweep first, then
// per-output proofs on the swept graph with the shared incremental solver,
// and finally the parallel fresh-solver fallback for outputs whose proofs
// timed out. golden supplies PI/PO names for the verdict.
func runCheck(ctx context.Context, m *aig.AIG, outsA, outsB []aig.Lit, golden *aig.AIG, opt Options) *Verdict {
	v := &Verdict{Status: Equal, Inputs: piNames(golden)}
	sw := newSweeper(m, opt, &v.Stats)
	sw.sweep(ctx)

	var pending []int
	for i := range outsA {
		la, lb := sw.liftLit(outsA[i]), sw.liftLit(outsB[i])
		if la == lb || sw.cut.equal(la, lb) {
			continue // merged during sweeping or proven on a common cut
		}
		res, cex := sw.prove(la, lb, opt.OutputBudget)
		switch res {
		case proven:
		case refuted:
			v.fail(golden, i, cex)
			return v
		default:
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return v
	}

	// Fallback: per-output miters with fresh solvers and a bigger budget,
	// spread over a worker pool. Each worker encodes only the two cones of
	// its output pair, so hard outputs don't serialize behind each other.
	outcomes := parallelMiter(ctx, sw, pending, outsA, outsB, opt, &v.Stats)
	for _, i := range pending {
		oc := outcomes[i]
		if oc.res == refuted {
			v.fail(golden, i, oc.cex)
			v.UndecidedOutputs = nil
			return v
		}
		if oc.res == undecided {
			v.Status = Undecided
			v.UndecidedOutputs = append(v.UndecidedOutputs, golden.POName(i))
		}
	}
	return v
}

// fail records a refuted golden output i with its counterexample.
func (v *Verdict) fail(golden *aig.AIG, i int, cex []bool) {
	v.Status = NotEqual
	v.FailingOutput = golden.POName(i)
	v.failingPO = i
	v.Counterexample = cex
}

type outcome struct {
	res      proveResult
	cex      []bool
	satCalls int
	timeouts int
	cexSeen  int
}

// parallelMiter proves the pending output pairs on the reduced graph, one
// fresh solver per output, opt.Workers at a time.
func parallelMiter(ctx context.Context, sw *sweeper, pending []int, outsA, outsB []aig.Lit, opt Options, stats *Stats) map[int]outcome {
	_, span := obs.Start(ctx, "cec.fallback")
	defer span.End()
	span.SetAttr("outputs", len(pending))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	obs.C("cec.fallback_outputs").Add(int64(len(pending)))

	red := sw.red // read-only from here on: safe to share across workers
	jobs := make(chan int)
	results := make([]outcome, len(pending))
	slot := make(map[int]int, len(pending)) // output index -> results slot
	for si, i := range pending {
		slot[i] = si
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[slot[i]] = proveFresh(red, sw.liftLit(outsA[i]), sw.liftLit(outsB[i]), opt.FallbackBudget)
			}
		}()
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := make(map[int]outcome, len(pending))
	for si, i := range pending {
		oc := results[si]
		stats.SATCalls += oc.satCalls
		stats.SATTimeouts += oc.timeouts
		stats.Cex += oc.cexSeen
		stats.FallbackRuns++
		obs.C("cec.sat_calls").Add(int64(oc.satCalls))
		out[i] = oc
	}
	return out
}

// proveFresh checks x ≡ y over g with a dedicated solver and budget,
// returning the outcome plus the counterexample PI assignment on refuted.
func proveFresh(g *aig.AIG, x, y aig.Lit, budget int64) outcome {
	var oc outcome
	s := sat.New(0)
	cnf := aig.NewCNFBuilder(g, s)
	piSat := make([]int, g.NumPIs())
	for i := range piSat {
		piSat[i] = cnf.SatVar(i + 1)
	}
	lx := cnf.SatLit(x)
	ly := cnf.SatLit(y)
	s.ConflictBudget = budget
	model := func() []bool {
		cex := make([]bool, len(piSat))
		for i, sv := range piSat {
			cex[i] = s.Value(sv)
		}
		return cex
	}
	oc.satCalls++
	switch s.Solve(lx, ly.Not()) {
	case sat.Sat:
		oc.res, oc.cex = refuted, model()
		oc.cexSeen++
		return oc
	case sat.Unknown:
		oc.res = undecided
		oc.timeouts++
		return oc
	}
	oc.satCalls++
	switch s.Solve(lx.Not(), ly) {
	case sat.Sat:
		oc.res, oc.cex = refuted, model()
		oc.cexSeen++
		return oc
	case sat.Unknown:
		oc.res = undecided
		oc.timeouts++
		return oc
	}
	oc.res = proven
	return oc
}
