package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm renders every metric in the Prometheus text exposition
// format (one # TYPE header per base metric name, series sorted by
// key), the `resurvey -metrics` exit dump. Labeled series created via
// Label share a base name and one header. A nil registry writes
// nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	m := r.state().Metrics
	lastType := ""
	header := func(name, kind string) {
		base := baseName(name)
		key := kind + " " + base
		if key != lastType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
			lastType = key
		}
	}
	for _, c := range m.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(bw, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range m.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(bw, "%s %s\n", g.Name, formatValue(g.Value))
	}
	for _, h := range m.Histograms {
		header(h.Name, "histogram")
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s %d\n", Label(h.Name+"_bucket", "le", b.LE), cum)
		}
		fmt.Fprintf(bw, "%s_sum %s\n", h.Name, formatValue(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}
	return bw.Flush()
}

// baseName strips a {label="..."} suffix from a registry key.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
