package main

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/gsim"
	"repro/internal/liberty"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/testlib"
)

// signoffCircuit is one mapped netlist of the signoff workload. The scaled
// EPFL builds map to 392-7740 gates.
type signoffCircuit struct {
	name string
	// cec: prove the netlist against its source AIG. sqrt is left out: its
	// check takes 156 s.
	cec bool
	// event: run the event-driven simulator. multiplier, square, sqrt and
	// sin (and hyp here) glitch so heavily that 256 event vectors take
	// 55-207 s; the others stay bounded.
	event bool
}

var signoffCircuits = []signoffCircuit{
	{"log2", true, true}, {"max", true, true}, {"arbiter", true, true},
	{"adder", true, true}, {"bar", true, true}, {"div", true, true},
	{"voter", true, true}, {"hyp", true, false}, {"sqrt", false, false},
	{"sin", true, false}, {"square", true, false}, {"multiplier", true, false},
}

const (
	signoffLevelizedVectors = 1024
	signoffEventVectors     = 64
	signoffTopPaths         = 10
	signoffDelayBudget      = 1.02
)

type signoffNetlist struct {
	signoffCircuit
	src *aig.AIG
	nl  *netlist.Netlist
}

type signoffEnv struct {
	cells    []*pdk.Cell
	corners  []*liberty.Library
	netlists []*signoffNetlist
}

// setupSignoff builds the 300 K and 10 K synthetic libraries and maps every
// scaled circuit once; the items then sign the fixed netlists off.
func setupSignoff(ctx context.Context, seed int64) (passFunc, error) {
	catalog := pdk.Catalog()
	lib300, cells := testlib.Build(catalog, testlib.Names(), 300)
	lib10, _ := testlib.Build(catalog, testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib10, cells, 6)
	if err != nil {
		return nil, err
	}
	env := &signoffEnv{cells: cells, corners: []*liberty.Library{lib300, lib10}}
	for _, c := range signoffCircuits {
		g, err := epfl.BuildScaled(c.name)
		if err != nil {
			return nil, err
		}
		nl, err := mapper.Map(ctx, g, ml, mapper.Options{})
		if err != nil {
			return nil, fmt.Errorf("map %s: %w", c.name, err)
		}
		env.netlists = append(env.netlists, &signoffNetlist{c, g, nl})
	}
	return func(p int) []*item {
		rng := passRand(seed, p)
		var items []*item
		for _, sn := range env.netlists {
			for _, lib := range env.corners {
				items = append(items, env.item(sn, lib, rng.Int63()))
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return items
	}, nil
}

// cloneNetlist copies a netlist's gate list so sizing can rewrite cells
// without touching the shared one.
func cloneNetlist(nl *netlist.Netlist, cells []*pdk.Cell) *netlist.Netlist {
	c := netlist.New(nl.Name, cells)
	c.Inputs, c.Outputs, c.Aliases = nl.Inputs, nl.Outputs, nl.Aliases
	c.Gates = append([]netlist.Gate(nil), nl.Gates...)
	return c
}

// item signs one netlist off at one corner: STA with slacks and the top
// paths, statistical power, slack-driven sizing, levelized simulation,
// equivalence checking against the source AIG and, where it stays bounded,
// event-driven simulation.
func (env *signoffEnv) item(sn *signoffNetlist, lib *liberty.Library, seed int64) *item {
	corner := cornerName(lib.TempK)
	return &item{
		name: sn.name + "@" + corner,
		tag:  corner,
		run: func(ctx context.Context) (func() error, error) {
			return env.signoff(ctx, sn, lib, seed)
		},
	}
}

func (env *signoffEnv) signoff(ctx context.Context, sn *signoffNetlist, lib *liberty.Library, seed int64) (func() error, error) {
	nl := sn.nl
	tr, err := call(ctx, "sta.Analyze", func(ctx context.Context) (*sta.Result, error) {
		return sta.Analyze(ctx, nl, lib, sta.Options{})
	})
	if err != nil {
		return nil, err
	}
	period := tr.CriticalDelay * 1.1
	call(ctx, "sta.Slacks", func(context.Context) (map[string]float64, error) {
		return tr.Slacks(period), nil
	})
	call(ctx, "sta.TopPaths", func(context.Context) ([]sta.Path, error) {
		return tr.TopPaths(signoffTopPaths, period), nil
	})
	if _, err := call(ctx, "power.Analyze", func(ctx context.Context) (*power.Report, error) {
		return power.Analyze(ctx, nl, lib, power.Options{ClockPeriod: period, Seed: seed})
	}); err != nil {
		return nil, err
	}
	if _, err := call(ctx, "synth.ResizeForPower", func(ctx context.Context) (*synth.ResizeResult, error) {
		return synth.ResizeForPower(ctx, cloneNetlist(nl, env.cells), lib, sta.Options{}, signoffDelayBudget)
	}); err != nil {
		return nil, err
	}
	m, err := call(ctx, "gsim.Compile", func(context.Context) (*gsim.Model, error) { return gsim.Compile(nl) })
	if err != nil {
		return nil, err
	}
	vecs := m.RandomVectors(signoffLevelizedVectors, seed)
	obs.C("bench.gsim.gate_vectors").Add(int64(len(m.Gates) * len(vecs)))
	lev, err := call(ctx, "gsim.Run", func(ctx context.Context) (*gsim.Result, error) {
		return gsim.NewLevelized(m).Run(ctx, vecs)
	})
	if err != nil {
		return nil, err
	}
	var verdict *cec.Verdict
	if sn.cec {
		verdict, err = call(ctx, "cec.Check", func(ctx context.Context) (*cec.Verdict, error) {
			ea, err := cec.Elaborate(nl)
			if err != nil {
				return nil, err
			}
			return cec.Check(ctx, sn.src, ea, cec.Options{Workers: 1, Seed: seed}), nil
		})
		if err != nil {
			return nil, err
		}
	}
	var ev *gsim.Result
	if sn.event {
		ev, err = call(ctx, "gsim.Run", func(ctx context.Context) (*gsim.Result, error) {
			if err := m.Annotate(ctx, lib, sta.Options{}); err != nil {
				return nil, err
			}
			return gsim.NewEvent(m, gsim.EventOptions{}).Run(ctx, vecs[:signoffEventVectors])
		})
		if err != nil {
			return nil, err
		}
		obs.C("bench.gsim.event_vectors").Add(signoffEventVectors)
	}
	return func() error { return checkSignoff(sn, seed, verdict, lev, ev) }, nil
}

// checkSignoff is the signoff oracle: the equivalence verdict is EQUAL, the
// levelized outputs match direct AIG evaluation, and the event-driven
// outputs agree with the levelized ones once each vector has settled.
func checkSignoff(sn *signoffNetlist, seed int64, verdict *cec.Verdict, lev, ev *gsim.Result) error {
	if sn.cec && verdict.Status != cec.Equal {
		return fmt.Errorf("cec verdict %v, want EQUAL", verdict.Status)
	}
	if err := checkFunction(sn.src, sn.nl, seed); err != nil {
		return err
	}
	if ev == nil {
		return nil
	}
	for v := range ev.OutputBits {
		for o, bit := range ev.OutputBits[v] {
			if bit != lev.OutputBits[v][o] {
				return fmt.Errorf("vector %d output %d: event-driven %v, levelized %v", v, o, bit, lev.OutputBits[v][o])
			}
		}
	}
	return nil
}
