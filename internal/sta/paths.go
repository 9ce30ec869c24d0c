package sta

import (
	"fmt"
	"io"
	"sort"
)

// PathArc is one hop of a timing path: the cell arc that propagates the
// worst arrival from one net to the next.
type PathArc struct {
	FromNet, ToNet string
	Gate, Cell     string  // empty for the primary-input launch point
	FromPin        string  // liberty input pin FromNet enters the gate through
	DelaySec       float64 // incremental arc delay (0 at the launch point)
	ArrivalSec     float64 // cumulative arrival at ToNet
	SlewSec        float64 // transition time at ToNet
	LoadF          float64 // capacitive load on ToNet
}

// Path is one endpoint's worst timing path, launch point first.
type Path struct {
	Endpoint   string // primary-output port name
	ArrivalSec float64
	SlackSec   float64 // against the clock period given to TopPaths
	Arcs       []PathArc
}

// TopPaths returns the K worst endpoint paths ranked by arrival time
// (PrimeTime's report_timing -max_paths K with one path per endpoint),
// each with its per-arc delay/slew breakdown. K <= 0 or K beyond the
// endpoint count returns every endpoint. Ties rank by endpoint name so the
// report is stable.
func (r *Result) TopPaths(k int, clockPeriod float64) []Path {
	g := r.Graph
	type endpoint struct {
		port string
		net  int32
		arr  float64
	}
	eps := make([]endpoint, len(g.Outputs))
	for o, net := range g.Outputs {
		eps[o] = endpoint{port: g.OutputNames[o], net: net, arr: r.Arrival[net]}
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].arr != eps[j].arr {
			return eps[i].arr > eps[j].arr
		}
		return eps[i].port < eps[j].port
	})
	if k > 0 && k < len(eps) {
		eps = eps[:k]
	}

	paths := make([]Path, 0, len(eps))
	for _, ep := range eps {
		p := Path{Endpoint: ep.port, ArrivalSec: ep.arr, SlackSec: clockPeriod - ep.arr}
		// Walk the stored worst-predecessor chain back to the launch point,
		// then reverse into launch-first order.
		var chain []int32
		for net := ep.net; net >= 0; net = r.prev[net] {
			chain = append(chain, net)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			net := chain[i]
			arc := PathArc{
				ToNet:      g.Nets[net],
				ArrivalSec: r.Arrival[net],
				SlewSec:    r.Slew[net],
				LoadF:      r.Load[net],
			}
			from := int32(-1)
			if i < len(chain)-1 {
				from = chain[i+1]
				arc.FromNet = g.Nets[from]
				arc.DelaySec = r.Arrival[net] - r.Arrival[from]
			}
			if gi := g.Driver[net]; gi >= 0 {
				node := &g.Gates[gi]
				arc.Gate, arc.Cell = node.Name, node.Cell
				// Name the liberty arc: the input pin FromNet drives.
				for pi, in := range node.In {
					if in == from {
						arc.FromPin = node.Def.Inputs[pi]
						break
					}
				}
			}
			p.Arcs = append(p.Arcs, arc)
		}
		paths = append(paths, p)
	}
	return paths
}

// WritePathReport renders the top-K paths in a report_timing-style text
// block: one header line per endpoint, one row per arc.
func WritePathReport(w io.Writer, paths []Path) error {
	for i, p := range paths {
		status := "MET"
		if p.SlackSec < 0 {
			status = "VIOLATED"
		}
		if _, err := fmt.Fprintf(w, "path %d: endpoint %s  arrival %.2f ps  slack %.2f ps  (%s)\n",
			i+1, p.Endpoint, p.ArrivalSec*1e12, p.SlackSec*1e12, status); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16s %-14s %-12s %-5s %9s %10s %8s %8s\n",
			"net", "gate", "cell", "pin", "delay(ps)", "arrive(ps)", "slew(ps)", "load(fF)")
		for _, a := range p.Arcs {
			gate, cell := a.Gate, a.Cell
			if gate == "" {
				gate, cell = "<input>", "-"
			}
			pin := a.FromPin
			if pin == "" {
				pin = "-"
			}
			fmt.Fprintf(w, "  %-16s %-14s %-12s %-5s %9.2f %10.2f %8.2f %8.3f\n",
				a.ToNet, gate, cell, pin, a.DelaySec*1e12, a.ArrivalSec*1e12,
				a.SlewSec*1e12, a.LoadF*1e15)
		}
	}
	return nil
}
