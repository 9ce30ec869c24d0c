package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName maps a dot-separated metric name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and every other illegal rune become
// underscores, and a leading digit gets a guard underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name. Counters and gauges map directly;
// histograms are exported as summaries (p50/p90/p99 quantiles plus _sum and
// _count). A nil registry writes only a comment, so the /metrics endpoint
// stays well-formed before metrics are enabled.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# metrics disabled")
		return err
	}
	var blocks []struct{ name, text string }
	add := func(name, text string) {
		blocks = append(blocks, struct{ name, text string }{name, text})
	}
	r.counters.Range(func(k, v any) bool {
		name := promName(k.(string))
		add(name, fmt.Sprintf("# TYPE %s counter\n%s %d\n", name, name, v.(*Counter).Value()))
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		name := promName(k.(string))
		add(name, fmt.Sprintf("# TYPE %s gauge\n%s %g\n", name, name, v.(*Gauge).Value()))
		return true
	})
	r.hists.Range(func(k, v any) bool {
		name := promName(k.(string))
		h := v.(*Histogram)
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE %s summary\n", name)
		if h.Count() > 0 {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(&b, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), h.Quantile(q))
			}
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.Count())
		add(name, b.String())
		return true
	})
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].name < blocks[j].name })
	for _, bl := range blocks {
		if _, err := io.WriteString(w, bl.text); err != nil {
			return err
		}
	}
	return nil
}
