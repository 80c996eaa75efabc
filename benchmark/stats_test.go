package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestPercentileLeavesTenBeyond checks the reporting rule: whatever
// quantile is asked for, the reported one has at least minBeyond
// samples above its rank, and it is the asked quantile whenever the
// sample count allows that.
func TestPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 36, 100, 960, 999, 1000, 4000, 10000} {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v, used, err := percentile(seq(n), q)
			if err != nil {
				t.Fatalf("n=%d q=%g: %v", n, q, err)
			}
			// Samples are 1..n, so the value is its own rank.
			if beyond := n - int(v); beyond < minBeyond {
				t.Errorf("n=%d q=%g: value %g has %d samples beyond, want >= %d", n, q, v, beyond, minBeyond)
			}
			if used > q {
				t.Errorf("n=%d q=%g: reported quantile %g above the asked one", n, q, used)
			}
			if n-int(math.Ceil(q*float64(n)-1e-9)) >= minBeyond && used != q {
				t.Errorf("n=%d q=%g: reported quantile %g, want the asked one", n, q, used)
			}
		}
	}
	if v, used, _ := percentile(seq(10000), 0.99); v != 9900 || used != 0.99 {
		t.Errorf("p99 of 1..10000 = %g at q=%g, want 9900 at 0.99", v, used)
	}
	if v, _, _ := percentile(seq(100), 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", v)
	}
	if _, _, err := percentile(seq(minBeyond), 0.5); err == nil {
		t.Errorf("percentile of %d samples succeeded; no quantile has %d beyond", minBeyond, minBeyond)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{10, 20, 40}
	// 10 observations in (10,20], 10 in (20,40], none in overflow.
	counts := []float64{0, 10, 10, 0}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 15}, {0.5, 20}, {0.75, 30}, {1, 40},
	} {
		if got := bucketQuantile(bounds, counts, c.q); got != c.want {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(bounds, []float64{0, 0, 0, 5}, 0.5); got != 40 {
		t.Errorf("overflow rank: got %g, want the last bound 40", got)
	}
}
