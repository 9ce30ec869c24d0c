package qor

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/aig"
	"repro/internal/charlib"
	"repro/internal/epfl"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
)

// RunOptions configures one cryobench recording run.
type RunOptions struct {
	Profile Profile
	Repeat  int   // repetitions; 0 = profile default
	Seed    int64 // flow seed (determinism anchor); 0 = 1
	// ClockSec is the reference clock for WNS/TNS; 0 = 1 ns.
	ClockSec float64
	// UseTestlib swaps the SPICE-characterized libraries for the fast
	// synthetic ones (the CI configuration).
	UseTestlib bool
	CacheDir   string // liberty cache dir for characterized corners
	// Workers bounds the characterization worker pool when corners are
	// SPICE-characterized (0 = GOMAXPROCS). Does not affect the QoR metrics
	// or the cache key — only wall-clock.
	Workers int
	// CreatedAt stamps the baseline (left empty for golden-stable output).
	CreatedAt string
}

// Run executes the profile and returns the recorded baseline.
//
// Instrumentation contract: Run leaves the process-global telemetry
// switches as it found them; the caller's -metrics, -trace and -cost flags
// decide what is recorded. Each repetition is one qor.rep span and one
// step of the qor.reps progress task.
func Run(ctx context.Context, opt RunOptions) (*Baseline, error) {
	if opt.Repeat <= 0 {
		opt.Repeat = opt.Profile.Repeat
	}
	if opt.Repeat <= 0 {
		opt.Repeat = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.ClockSec == 0 {
		opt.ClockSec = 1e-9
	}
	ctx = obs.Detach(ctx)

	corners, err := loadCorners(ctx, opt)
	if err != nil {
		return nil, err
	}

	b := &Baseline{
		SchemaVersion: SchemaVersion,
		Tool:          "cryobench",
		Profile:       opt.Profile.Name,
		Repeat:        opt.Repeat,
		Seed:          opt.Seed,
		ClockSec:      opt.ClockSec,
		Testlib:       opt.UseTestlib,
		CreatedAt:     opt.CreatedAt,
		GoOSArch:      runtime.GOOS + "/" + runtime.GOARCH,
	}

	reps := obs.Progress("qor.reps",
		int64(len(opt.Profile.Circuits))*int64(len(opt.Profile.Scenarios))*int64(opt.Repeat))
	defer reps.Finish()

	for _, name := range opt.Profile.Circuits {
		g, err := epfl.Build(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range opt.Profile.Scenarios {
			rec := Circuit{
				Name:          name,
				Scenario:      sc.String(),
				AIGNodesIn:    g.NumNodes(),
				Deterministic: true,
			}
			for rep := 0; rep < opt.Repeat; rep++ {
				// qor.rep roots each repetition's span subtree, so the
				// flow stages group per rep instead of scattering as
				// top-level roots.
				repCtx, repSpan := obs.Start(ctx, "qor.rep")
				repCircuit, err := runOnce(repCtx, g, sc, corners, opt)
				repSpan.End()
				if err != nil {
					obs.J().Failure("qor", err.Error(), map[string]string{
						"circuit":  name,
						"scenario": sc.String(),
						"rep":      fmt.Sprint(rep),
					}, nil)
					return nil, fmt.Errorf("qor: %s/%s rep %d: %w", name, sc, rep, err)
				}

				if rep == 0 {
					rec.AIGNodesOpt = repCircuit.AIGNodesOpt
					rec.AIGDepthOpt = repCircuit.AIGDepthOpt
					rec.Corners = repCircuit.Corners
				} else if !sameQoR(&rec, repCircuit) {
					rec.Deterministic = false
				}
				reps.Inc()
			}
			b.Circuits = append(b.Circuits, rec)
		}
	}
	return b, nil
}

// cornerLib pairs a temperature with its characterized library and match
// library.
type cornerLib struct {
	tempK float64
	lib   *liberty.Library
	ml    *mapper.MatchLibrary
}

func loadCorners(ctx context.Context, opt RunOptions) ([]cornerLib, error) {
	out := make([]cornerLib, 0, len(opt.Profile.Corners))
	for _, temp := range opt.Profile.Corners {
		lib, cells, err := charlib.Corner{TempK: temp, Testlib: opt.UseTestlib,
			CacheDir: opt.CacheDir, Workers: opt.Workers}.Library(ctx)
		if err != nil {
			return nil, fmt.Errorf("qor: characterizing %g K corner: %w", temp, err)
		}
		ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
		if err != nil {
			return nil, fmt.Errorf("qor: match library at %g K: %w", temp, err)
		}
		out = append(out, cornerLib{tempK: temp, lib: lib, ml: ml})
	}
	return out, nil
}

// topPaths is the number of critical endpoint paths recorded per
// (circuit, corner) for attribution.
const topPaths = 3

// runOnce runs the full flow for one (circuit, scenario) repetition across
// all corners and returns the QoR record. The synthesis front is corner
// independent, so it runs once and is finished against each corner.
func runOnce(ctx context.Context, g *aig.AIG, sc synth.Scenario, corners []cornerLib, opt RunOptions) (*Circuit, error) {
	rec := &Circuit{}
	front := synth.Prepare(ctx, g, synth.Options{Seed: opt.Seed})
	for _, c := range corners {
		res, err := front.Synthesize(ctx, c.ml, sc)
		if err != nil {
			return nil, fmt.Errorf("synthesis at %g K: %w", c.tempK, err)
		}
		rec.AIGNodesOpt = res.NodesPower
		rec.AIGDepthOpt = res.DepthOut
		if err := signoff(ctx, g, res, opt.Seed); err != nil {
			return nil, fmt.Errorf("functional signoff at %g K: %w", c.tempK, err)
		}
		timing, err := sta.Analyze(ctx, res.Netlist, c.lib, sta.Options{})
		if err != nil {
			return nil, fmt.Errorf("STA at %g K: %w", c.tempK, err)
		}
		rep, cells, err := power.AnalyzeTimed(ctx, res.Netlist, c.lib, timing, power.Options{
			ClockPeriod: opt.ClockSec, Seed: opt.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("power at %g K: %w", c.tempK, err)
		}
		corner := Corner{
			TempK:        c.tempK,
			Gates:        res.Netlist.NumGates(),
			Area:         res.Netlist.Area(),
			CriticalSec:  timing.CriticalDelay,
			WNSSec:       timing.WorstSlack(opt.ClockSec),
			TNSSec:       endpointTNS(timing, res.Netlist, opt.ClockSec),
			LeakageW:     rep.Leakage,
			DynamicW:     rep.Internal + rep.Switching,
			TotalW:       rep.Total(),
			Paths:        toPathRecords(timing.TopPaths(topPaths, opt.ClockSec)),
			PowerByClass: toClassPower(power.GroupByCell(cells), rep),
		}
		rec.Corners = append(rec.Corners, corner)
	}
	return rec, nil
}

// toPathRecords converts the live STA paths into the persisted schema form.
func toPathRecords(paths []sta.Path) []PathRecord {
	out := make([]PathRecord, 0, len(paths))
	for _, p := range paths {
		pr := PathRecord{
			Endpoint:   p.Endpoint,
			ArrivalSec: p.ArrivalSec,
			SlackSec:   p.SlackSec,
			Arcs:       make([]ArcRecord, 0, len(p.Arcs)),
		}
		for _, a := range p.Arcs {
			pr.Arcs = append(pr.Arcs, ArcRecord{
				FromNet:    a.FromNet,
				ToNet:      a.ToNet,
				Gate:       a.Gate,
				Cell:       a.Cell,
				Pin:        a.FromPin,
				DelaySec:   a.DelaySec,
				ArrivalSec: a.ArrivalSec,
				SlewSec:    a.SlewSec,
				LoadF:      a.LoadF,
			})
		}
		out = append(out, pr)
	}
	return out
}

// InputNetsClass is the pseudo cell class carrying primary-input net
// switching power, which no gate instance owns.
const InputNetsClass = "(input-nets)"

// toClassPower converts the power package's per-class rows into the schema
// form, adding a pseudo-class for switching power on nets no gate drives
// (primary inputs) so the breakdown covers the corner totals.
func toClassPower(classes []power.ClassPower, rep *power.Report) []ClassPower {
	out := make([]ClassPower, 0, len(classes)+1)
	var attributed float64
	for _, c := range classes {
		out = append(out, ClassPower{
			Cell:       c.Cell,
			Count:      c.Count,
			LeakageW:   c.Leakage,
			InternalW:  c.Internal,
			SwitchingW: c.Switching,
		})
		attributed += c.Switching
	}
	if resid := rep.Switching - attributed; resid > 1e-12*rep.Switching {
		out = append(out, ClassPower{Cell: InputNetsClass, SwitchingW: resid})
	}
	return out
}

// endpointTNS sums the negative endpoint (primary-output) slacks.
func endpointTNS(r *sta.Result, nl *netlist.Netlist, clock float64) float64 {
	slacks := r.Slacks(clock)
	var tns float64
	for _, out := range nl.Outputs {
		if s := slacks[nl.Resolve(out)]; s < 0 {
			tns += s
		}
	}
	return tns
}

// sameQoR reports whether a repetition reproduced the recorded QoR bit for
// bit (the flow is seeded, so it should). Path and power-class provenance
// participates: a wandering critical path is nondeterminism even when the
// scalar QoR happens to agree. Both records come from runOnce, so their
// slices are never nil on one side and empty on the other.
func sameQoR(rec *Circuit, rep *Circuit) bool {
	return rec.AIGNodesOpt == rep.AIGNodesOpt && rec.AIGDepthOpt == rep.AIGDepthOpt &&
		reflect.DeepEqual(rec.Corners, rep.Corners)
}
