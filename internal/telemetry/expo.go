package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteProm writes the registry's current state in the Prometheus text
// exposition format (version 0.0.4), so a long-running sweep can be
// scraped live through an HTTP /metrics endpoint. Metric names are
// sanitized to the Prometheus grammar (every character outside
// [a-zA-Z0-9_:] becomes '_'); counters and gauges expose their value
// directly; histograms expose cumulative le-labelled buckets plus
// _sum and _count series, their deterministic _p50/_p90/_p99 quantile
// gauges and a _mean gauge (guarded: a non-finite mean is never
// emitted).
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.Snapshot() {
		name := promName(s.Name)
		var err error
		switch s.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Value)
		case "fixed_histogram":
			if err = writePromFixed(w, name, s); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromFixed exposes one fixed-bound histogram: le labels are the
// exact bucket bounds (inclusive upper bounds, matching Prometheus
// semantics directly), and the deterministic quantiles ride along as
// plain gauges.
func writePromFixed(w io.Writer, name string, s Snapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for _, b := range s.Hist {
		cum += b.Count
		// The overflow bucket snapshots with High 0; it is covered by
		// the +Inf series below.
		if b.High == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.High, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count); err != nil {
		return err
	}
	for _, q := range []struct {
		suffix string
		v      int64
	}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}} {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %d\n",
			name, q.suffix, name, q.suffix, q.v); err != nil {
			return err
		}
	}
	if isFinite(s.Mean) {
		if _, err := fmt.Fprintf(w, "# TYPE %s_mean gauge\n%s_mean %g\n", name, name, s.Mean); err != nil {
			return err
		}
	}
	return nil
}

// isFinite guards float series: NaN and ±Inf values (a mean over zero
// observations, an overflowed sum) are dropped rather than emitted as
// unparsable sample lines.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// promName maps a registry name onto the Prometheus metric grammar.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
