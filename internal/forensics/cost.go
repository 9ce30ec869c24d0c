package forensics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// CostFromEvents reconstructs a cost report from a journal's typed cost
// events: the summary event (report totals in attrs, no detail payload)
// plus one node event per span path, relinked into a tree by path. run
// selects which journal run to read; "" picks the last run that emitted
// cost events. Returns an error when the events carry no cost data.
func CostFromEvents(evs []obs.Event, run string) (*obs.CostReport, error) {
	if run == "" {
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Kind == obs.KindCost {
				run = evs[i].Run
				break
			}
		}
		if run == "" {
			return nil, fmt.Errorf("forensics: no cost events in journal (was the run started with -cost?)")
		}
	}
	rep := &obs.CostReport{}
	var flat []*obs.CostNode
	sawSummary := false
	for i := range evs {
		e := &evs[i]
		if e.Kind != obs.KindCost || e.Run != run {
			continue
		}
		if len(e.Detail) == 0 {
			sawSummary = true
			rep.WindowSec = attrF64(e.Attrs, "window_seconds")
			rep.ProcessCPUSec = attrF64(e.Attrs, "process_cpu_seconds")
			rep.ProfiledCPUSec = attrF64(e.Attrs, "profiled_cpu_seconds")
			rep.CPUAttributed = e.Attrs["cpu_attributed"] == "true"
			continue
		}
		var n obs.CostNode
		if err := json.Unmarshal(e.Detail, &n); err != nil {
			return nil, fmt.Errorf("forensics: cost event seq %d: %w", e.Seq, err)
		}
		flat = append(flat, &n)
	}
	if !sawSummary && len(flat) == 0 {
		return nil, fmt.Errorf("forensics: run %s has no cost events", run)
	}
	// Relink by path. Emission is preorder, so a parent always precedes its
	// children and child order within the events is the report's sort order.
	byPath := make(map[string]*obs.CostNode, len(flat))
	for _, n := range flat {
		byPath[n.Path] = n
		if i := strings.LastIndex(n.Path, "/"); i >= 0 {
			if p := byPath[n.Path[:i]]; p != nil {
				p.Children = append(p.Children, n)
				continue
			}
		}
		rep.Roots = append(rep.Roots, n)
	}
	return rep, nil
}

func attrF64(attrs map[string]string, key string) float64 {
	v, err := strconv.ParseFloat(attrs[key], 64)
	if err != nil {
		return 0
	}
	return v
}
