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
	sw := sweep(ctx, m, opt.Seed)

	var pending []int
	for i := range outsA {
		la, lb := sw.Lift(outsA[i]), sw.Lift(outsB[i])
		if la == lb || sw.CutEqual(la, lb) {
			continue // merged during sweeping or proven on a common cut
		}
		res, cex := sw.Prove(la, lb, opt.OutputBudget)
		if res == aig.Refuted {
			v.fail(golden, i, cex)
			break
		}
		if res == aig.Undecided {
			pending = append(pending, i)
		}
	}
	v.Stats.publish(sw.Stats)
	if v.Status == NotEqual || len(pending) == 0 {
		return v
	}

	// Fallback: per-output miters with fresh solvers and a bigger budget,
	// spread over a worker pool. Each worker encodes only the two cones of
	// its output pair, so hard outputs don't serialize behind each other.
	outcomes := parallelMiter(ctx, sw, pending, outsA, outsB, opt, &v.Stats)
	for _, i := range pending {
		oc := outcomes[i]
		if oc.res == aig.Refuted {
			v.fail(golden, i, oc.cex)
			v.UndecidedOutputs = nil
			return v
		}
		if oc.res == aig.Undecided {
			v.Status = Undecided
			v.UndecidedOutputs = append(v.UndecidedOutputs, golden.POName(i))
		}
	}
	return v
}

// sweep runs the aig sweep engine over every AND node of the miter under
// the cec.sweep span and progress task.
func sweep(ctx context.Context, m *aig.AIG, seed int64) *aig.Sweeper {
	_, span := obs.Start(ctx, "cec.sweep")
	defer span.End()
	nodes := obs.Progress("cec.sweep", int64(m.NumNodes()))
	defer nodes.Finish()
	sw := aig.NewSweeper(m, seed)
	sw.Run(nodes)
	span.SetAttr("miter_nodes", sw.Stats.Nodes)
	span.SetAttr("reduced_nodes", sw.Stats.ReducedNodes)
	span.SetAttr("refinements", sw.Stats.Refinements)
	return sw
}

// publish copies the sweep's counts, output proofs included, into the
// check's Stats and adds them to the cec.* counters. A counter with
// nothing to add is left unregistered, as the sweep left it when it
// counted each event as it happened.
func (st *Stats) publish(s aig.SweepStats) {
	*st = Stats{
		MiterNodes: s.Nodes, ReducedNodes: s.ReducedNodes,
		SimPatterns: s.SimPatterns, Refinements: s.Refinements,
		StructMerges: s.StructMerges, LocalMerges: s.LocalMerges, SATMerges: s.SATMerges,
		SATCalls: s.SATCalls, SATTimeouts: s.SATTimeouts, Cex: s.Cex,
	}
	for name, n := range map[string]int{
		"cec.merges":          s.LocalMerges + s.SATMerges,
		"cec.sat_calls":       s.SATCalls,
		"cec.cex":             s.Cex,
		"cec.classes_refined": s.Refinements,
	} {
		if n > 0 {
			obs.C(name).Add(int64(n))
		}
	}
}

// fail records a refuted golden output i with its counterexample.
func (v *Verdict) fail(golden *aig.AIG, i int, cex []bool) {
	v.Status = NotEqual
	v.FailingOutput = golden.POName(i)
	v.OutputA = i
	v.Counterexample = cex
}

type outcome struct {
	res    aig.ProveResult
	cex    []bool
	solves int
}

// parallelMiter proves the pending output pairs on the reduced graph, one
// fresh solver per output, opt.Workers at a time.
func parallelMiter(ctx context.Context, sw *aig.Sweeper, pending []int, outsA, outsB []aig.Lit, opt Options, stats *Stats) map[int]outcome {
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

	red := sw.Reduced() // read-only from here on: safe to share across workers
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
				results[slot[i]] = proveFresh(red, sw.Lift(outsA[i]), sw.Lift(outsB[i]), opt.FallbackBudget)
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
		stats.SATCalls += oc.solves
		switch oc.res {
		case aig.Refuted:
			stats.Cex++
			obs.C("cec.cex").Inc()
		case aig.Undecided:
			stats.SATTimeouts++
		}
		stats.FallbackRuns++
		obs.C("cec.sat_calls").Add(int64(oc.solves))
		out[i] = oc
	}
	return out
}

// proveFresh checks x ≡ y over g on a fresh solver with its own budget,
// inputs encoded first as on the sweep engine's solver, and returns the
// counterexample on Refuted.
func proveFresh(g *aig.AIG, x, y aig.Lit, budget int64) outcome {
	cnf := aig.NewCNFBuilder(g, sat.New(0))
	cnf.EncodeInputs()
	var oc outcome
	oc.res, oc.solves = cnf.Prove(x, y, budget)
	if oc.res == aig.Refuted {
		oc.cex = cnf.InputModel()
	}
	return oc
}
