// Package sta implements static timing analysis over liberty NLDM tables:
// topological arrival-time and slew propagation with per-net capacitive
// loads, reporting the critical path. Together with internal/power it plays
// the role of the paper's Synopsys PrimeTime signoff step. It runs on the
// compiled netlist.Graph: every per-net quantity is a slice over net IDs,
// and each gate's liberty arcs are bound once per analysis.
package sta

import (
	"context"
	"fmt"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pdk"
)

// Options configures an STA run.
type Options struct {
	InputSlew float64 // transition time assumed at primary inputs (default 10 ps)
	OutputCap float64 // load added to primary-output nets (default 1 fF)
	WireCap   float64 // extra capacitance per fanout connection (default 0.1 fF)
}

// Arc is one cell input pin's liberty data.
type Arc struct {
	Cap    float64                // input pin capacitance
	Timing *liberty.Timing        // timing arc to the output pin
	Power  *liberty.InternalPower // internal-power group; nil when absent
}

// CellArcs is a liberty cell bound to its PDK input-pin order: Arcs[i]
// belongs to the cell's input pin i, the pin a netlist.Node's In[i] drives.
type CellArcs struct {
	Cell *liberty.Cell
	Arcs []Arc
}

// Result holds the analysis outcome.
type Result struct {
	// CriticalDelay is the worst arrival time over all primary outputs.
	CriticalDelay float64
	// CriticalPath lists the nets of the worst path, output first.
	CriticalPath []string

	// Graph is the compiled netlist the analysis ran on. Arrival and Slew
	// (worst case) and Load (capacitance) are indexed by its net IDs;
	// constants arrive at 0 with the input slew.
	Graph   *netlist.Graph
	Arrival []float64
	Slew    []float64
	Load    []float64
	// Bound[gi] is gate gi's liberty cell and arcs.
	Bound []*CellArcs

	prev  []int32 // net -> worst-path predecessor net, -1 at launch points
	lib   *liberty.Library
	cells map[string]*liberty.Cell
	bound map[string]*CellArcs
}

// Analyze compiles a mapped netlist and times it against its characterized
// library.
func Analyze(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, opt Options) (*Result, error) {
	_, span := obs.Start(ctx, "sta.analyze")
	span.SetAttr("design", nl.Name)
	span.SetAttr("gates", nl.NumGates())
	defer span.End()
	g, err := netlist.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	return analyze(span, g, lib, opt)
}

// AnalyzeGraph times an already compiled netlist.
func AnalyzeGraph(ctx context.Context, g *netlist.Graph, lib *liberty.Library, opt Options) (*Result, error) {
	_, span := obs.Start(ctx, "sta.analyze")
	span.SetAttr("design", g.Name)
	span.SetAttr("gates", len(g.Gates))
	defer span.End()
	return analyze(span, g, lib, opt)
}

func analyze(span *obs.Span, g *netlist.Graph, lib *liberty.Library, opt Options) (*Result, error) {
	obs.C("sta.analyses").Inc()
	if opt.InputSlew == 0 {
		opt.InputSlew = 10e-12
	}
	if opt.OutputCap == 0 {
		opt.OutputCap = 1e-15
	}
	if opt.WireCap == 0 {
		opt.WireCap = 0.1e-15
	}
	n := len(g.Nets)
	res := &Result{
		Graph:   g,
		Arrival: make([]float64, n),
		Slew:    make([]float64, n),
		Load:    make([]float64, n),
		Bound:   make([]*CellArcs, len(g.Gates)),
		prev:    make([]int32, n),
		lib:     lib,
		cells:   make(map[string]*liberty.Cell, len(lib.Cells)),
		bound:   make(map[string]*CellArcs),
	}
	for _, c := range lib.Cells {
		if _, dup := res.cells[c.Name]; !dup {
			res.cells[c.Name] = c
		}
	}
	// Net loads: sum of load-pin capacitances plus wire estimate.
	for gi := range g.Gates {
		node := &g.Gates[gi]
		ca, err := res.Bind(node.Def)
		if err != nil {
			return nil, err
		}
		res.Bound[gi] = ca
		for i, net := range node.In {
			res.Load[net] += ca.Arcs[i].Cap + opt.WireCap
		}
	}
	for _, out := range g.Outputs {
		res.Load[out] += opt.OutputCap
	}
	for id := range res.Slew {
		res.Slew[id] = opt.InputSlew
		res.prev[id] = -1
	}
	arcsEvaluated := 0
	for gi := range g.Gates {
		node := &g.Gates[gi]
		arcs := res.Bound[gi].Arcs
		load := res.Load[node.Out]
		worstArr, worstSlew := 0.0, opt.InputSlew
		worstFrom := int32(-1)
		for i, net := range node.In {
			tm := arcs[i].Timing
			inSlew := res.Slew[net]
			tr := tm.RiseTrans.Lookup(inSlew, load)
			if f := tm.FallTrans.Lookup(inSlew, load); f > tr {
				tr = f
			}
			if arr := res.Arrival[net] + tm.Delay(inSlew, load); arr > worstArr {
				worstArr = arr
				worstFrom = net
			}
			if tr > worstSlew {
				worstSlew = tr
			}
		}
		arcsEvaluated += len(node.In)
		res.Arrival[node.Out] = worstArr
		res.Slew[node.Out] = worstSlew
		res.prev[node.Out] = worstFrom
	}
	// Critical output.
	worstNet := int32(-1)
	for _, out := range g.Outputs {
		if arr := res.Arrival[out]; arr >= res.CriticalDelay {
			res.CriticalDelay = arr
			worstNet = out
		}
	}
	for net := worstNet; net >= 0; net = res.prev[net] {
		res.CriticalPath = append(res.CriticalPath, g.Nets[net])
	}
	obs.C("sta.arcs_evaluated").Add(int64(arcsEvaluated))
	obs.C("sta.nets_propagated").Add(int64(len(g.Inputs) + len(g.Gates)))
	obs.H("sta.critical_path_nets").Observe(float64(len(res.CriticalPath)))
	obs.H("sta.critical_delay_seconds").Observe(res.CriticalDelay)
	span.SetAttr("critical_ps", res.CriticalDelay*1e12)
	span.SetAttr("arcs", arcsEvaluated)
	return res, nil
}

// Bind returns a PDK cell's liberty cell and arcs in the analysis library,
// resolving each distinct cell once. Gate sizing uses it to price
// alternative drives of a gate.
func (r *Result) Bind(def *pdk.Cell) (*CellArcs, error) {
	if ca, ok := r.bound[def.Name]; ok {
		return ca, nil
	}
	lc := r.cells[def.Name]
	if lc == nil {
		return nil, fmt.Errorf("sta: cell %s not in library %s", def.Name, r.lib.Name)
	}
	outPin := def.Outputs[0]
	ca := &CellArcs{Cell: lc, Arcs: make([]Arc, len(def.Inputs))}
	for i, in := range def.Inputs {
		pin := lc.FindPin(in)
		if pin == nil {
			return nil, fmt.Errorf("sta: cell %s pin %s missing", def.Name, in)
		}
		tm := lc.Timing(outPin, in)
		if tm == nil {
			return nil, fmt.Errorf("sta: cell %s missing arc %s->%s", def.Name, in, outPin)
		}
		ca.Arcs[i] = Arc{Cap: pin.Cap, Timing: tm, Power: lc.Power(outPin, in)}
	}
	r.bound[def.Name] = ca
	return ca, nil
}

// NetSlacks computes per-net slack, indexed by net ID, against the given
// clock period: the backward-propagated required time minus the arrival
// time. Negative slack marks a timing violation.
func (r *Result) NetSlacks(clockPeriod float64) []float64 {
	obs.C("sta.slack_queries").Inc()
	g := r.Graph
	slack := make([]float64, len(g.Nets))
	for id := range slack {
		slack[id] = clockPeriod
	}
	// Walk gates in reverse topological order, tightening input required
	// times through each arc's delay at the gate's operating point.
	for gi := len(g.Gates) - 1; gi >= 0; gi-- {
		node := &g.Gates[gi]
		arcs := r.Bound[gi].Arcs
		load := r.Load[node.Out]
		outReq := slack[node.Out]
		for i, net := range node.In {
			if req := outReq - arcs[i].Timing.Delay(r.Slew[net], load); req < slack[net] {
				slack[net] = req
			}
		}
	}
	for id, arr := range r.Arrival {
		slack[id] -= arr
	}
	return slack
}

// Slacks returns NetSlacks keyed by net name, constants excluded.
func (r *Result) Slacks(clockPeriod float64) map[string]float64 {
	slack := r.NetSlacks(clockPeriod)
	out := make(map[string]float64, len(slack))
	for id := netlist.NetConst1 + 1; int(id) < len(slack); id++ {
		out[r.Graph.Nets[id]] = slack[id]
	}
	return out
}

// WorstSlack returns the minimum slack over all nets but the constants for
// the given clock period.
func (r *Result) WorstSlack(clockPeriod float64) float64 {
	worst := clockPeriod
	for _, s := range r.NetSlacks(clockPeriod)[netlist.NetConst1+1:] {
		if s < worst {
			worst = s
		}
	}
	return worst
}
