package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf returns the 1-based nearest rank of quantile q over n samples:
// the smallest rank r with r >= q·n. The epsilon keeps q·n from rounding
// up past an exact integer (0.99·10000 is 9900.000000000002 in float64).
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantile returns the quantile to report for a requested q over n
// samples: q itself when at least minBeyond samples lie beyond its rank,
// otherwise the highest quantile that still leaves minBeyond beyond.
// It fails when n is too small for any quantile to have minBeyond
// samples beyond it.
func tailQuantile(q float64, n int) (float64, error) {
	if n <= minBeyond {
		return 0, fmt.Errorf("%d samples: a percentile needs more than %d", n, minBeyond)
	}
	if n-rankOf(q, n) >= minBeyond {
		return q, nil
	}
	return float64(n-minBeyond) / float64(n), nil
}

// percentile reports the tailQuantile-adjusted q-quantile of xs by
// nearest rank, with the quantile actually used.
func percentile(xs []float64, q float64) (value, used float64, err error) {
	used, err = tailQuantile(q, len(xs))
	if err != nil {
		return 0, 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(used, len(s))-1], used, nil
}

// bucketQuantile estimates the q-quantile of a histogram given as upper
// bounds and per-bucket counts (the last count is the overflow bucket
// above the last bound), interpolating linearly inside the bucket that
// holds the rank. A rank in the overflow bucket reports the last bound.
func bucketQuantile(bounds []float64, counts []float64, q float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum, lo float64
	for i, c := range counts {
		if i >= len(bounds) {
			break
		}
		if c > 0 && cum+c >= rank {
			return lo + (bounds[i]-lo)*(rank-cum)/c
		}
		cum += c
		lo = bounds[i]
	}
	return bounds[len(bounds)-1]
}
