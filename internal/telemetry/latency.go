package telemetry

import "sync/atomic"

// LatencyBounds are the default fixed bucket upper bounds for latency
// histograms, in microseconds: 50µs to 10s on a 1-2.5-5 ladder. Fixed
// bounds make the exported quantiles deterministic functions of the
// observation multiset — two runs that observe the same values report
// the same p50/p90/p99.
var LatencyBounds = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// FixedHistogram accumulates a distribution in caller-fixed bucket
// bounds with atomic updates. Bucket i counts observations v with
// v <= bounds[i] (and v > bounds[i-1]); one overflow bucket catches the
// rest. Quantiles are estimated as the upper bound of the bucket where
// the cumulative count crosses the rank, which is deterministic and
// never interpolates.
type FixedHistogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
}

// NewFixedHistogram returns a standalone histogram over the given
// strictly ascending upper bounds (nil selects LatencyBounds).
func NewFixedHistogram(bounds []int64) *FixedHistogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: fixed histogram bounds must be strictly ascending")
		}
	}
	return &FixedHistogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *FixedHistogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// Count returns the number of observations.
func (h *FixedHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *FixedHistogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (shared; do not modify).
func (h *FixedHistogram) Bounds() []int64 { return h.bounds }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the rank-⌈q·count⌉ observation. An empty histogram
// returns 0 (never NaN); ranks landing in the overflow bucket return
// the last bound (the histogram cannot resolve beyond it).
func (h *FixedHistogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *FixedHistogram) snapshot(name string) Snapshot {
	s := Snapshot{
		Name: name, Kind: "fixed_histogram",
		Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	low := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		high := int64(0)
		if i < len(h.bounds) {
			high = h.bounds[i]
		}
		if n != 0 {
			// Overflow bucket exports High 0 — WriteProm maps it to +Inf.
			s.Hist = append(s.Hist, Bucket{Low: low, High: high, Count: n})
		}
		low = high
	}
	return s
}

// FixedHistogram returns the named fixed-bound histogram, creating it
// over bounds on first use (nil selects LatencyBounds; the bounds of an
// existing histogram are kept).
func (r *Registry) FixedHistogram(name string, bounds []int64) *FixedHistogram {
	return lookup(r, name, func() *FixedHistogram { return NewFixedHistogram(bounds) })
}
