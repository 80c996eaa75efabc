package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"strings"
	"testing"

	"repro/internal/store"
)

func decodeBatch(t *testing.T, r request) []batchPoint {
	t.Helper()
	var body struct {
		Points []batchPoint `json:"points"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		t.Fatalf("batch body %q: %v", r.body, err)
	}
	return body.Points
}

func TestWarmSequenceIsSeeded(t *testing.T) {
	keys := servedKeys()
	a := warmSequence(7, 2000, keys, warmExperiments)
	b := warmSequence(7, 2000, keys, warmExperiments)
	c := warmSequence(8, 2000, keys, warmExperiments)
	differs := false
	for i := range a {
		if a[i].target != b[i].target || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two sequences from seed 7", i)
		}
		differs = differs || a[i].target != c[i].target || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differs {
		t.Error("seeds 7 and 8 produced the same sequence")
	}
}

func TestWarmSequenceReachesEveryKey(t *testing.T) {
	keys := servedKeys()
	if len(keys) != 75 {
		t.Fatalf("simd addresses %d bench x config keys, want 15 benchmarks x 5 configs", len(keys))
	}
	for seed := int64(1); seed <= 3; seed++ {
		seen := map[servedKey]bool{}
		for _, r := range warmSequence(seed, fullSession().warm, keys, warmExperiments) {
			if r.kind != kindBatch {
				continue
			}
			for _, p := range decodeBatch(t, r) {
				seen[servedKey{p.Bench, p.Config}] = true
			}
		}
		if len(seen) != len(keys) {
			t.Errorf("seed %d: warm batches reach %d of %d keys", seed, len(seen), len(keys))
		}
	}
}

func TestWarmSequenceMix(t *testing.T) {
	const n = 10000
	reqs := warmSequence(1, n, servedKeys(), warmExperiments)
	var count [numKinds]int
	isExp := map[string]bool{}
	for _, id := range warmExperiments {
		isExp[id] = true
	}
	for _, r := range reqs {
		count[r.kind]++
		switch r.kind {
		case kindBatch:
			if pts := decodeBatch(t, r); len(pts) < 1 || len(pts) > 8 || r.points != len(pts) {
				t.Fatalf("batch of %d points (recorded %d), want 1-8", len(pts), r.points)
			}
		case kindExperiment:
			if pts := decodeBatch(t, r); len(pts) != 1 || !isExp[pts[0].Experiment] {
				t.Fatalf("experiment request %s, want one of %v", r.body, warmExperiments)
			}
		case kindQuery:
			if _, err := store.ParseFilter(r.filter); err != nil {
				t.Fatalf("query filter %q: %v", r.filter, err)
			}
			q, err := url.ParseQuery(strings.TrimPrefix(r.target, "/v1/query?"))
			if err != nil || len(q) != len(strings.Fields(r.filter)) {
				t.Fatalf("query %s does not carry filter %q", r.target, r.filter)
			}
		}
	}
	for kind, want := range map[reqKind]float64{kindBatch: 0.6, kindQuery: 0.3, kindExperiment: 0.1} {
		if got := float64(count[kind]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("kind %d: share %.3f, want %.2f +- 0.02", kind, got, want)
		}
	}
	for _, r := range warmSequence(1, 1000, servedKeys(), nil) {
		if r.kind == kindExperiment {
			t.Fatal("a sequence without experiments drew an experiment point")
		}
	}
}

// TestZipfCDF pins the key distribution to Zipf's law with exponent 1:
// over four ranks the weights are 1, 1/2, 1/3 and 1/4 of 25/12.
func TestZipfCDF(t *testing.T) {
	cdf := zipfCDF(4)
	for i, want := range []float64{12.0 / 25, 18.0 / 25, 22.0 / 25, 1} {
		if math.Abs(cdf[i]-want) > 1e-12 {
			t.Errorf("cdf[%d] = %g, want %g", i, cdf[i], want)
		}
	}
}

func TestColdBatchesPostEveryKeyOnce(t *testing.T) {
	keys := servedKeys()
	batches := coldBatches(3, keys)
	if len(batches) != 15 {
		t.Fatalf("%d cold batches, want 15", len(batches))
	}
	seen := map[servedKey]int{}
	for _, b := range batches {
		for _, p := range decodeBatch(t, b) {
			seen[servedKey{p.Bench, p.Config}]++
		}
	}
	for _, k := range keys {
		if seen[k] != 1 {
			t.Errorf("key %v posted %d times, want once", k, seen[k])
		}
	}
}

func TestPromBuckets(t *testing.T) {
	page := `# TYPE http_request_latency_us histogram
http_request_latency_us_bucket{le="100"} 4
http_request_latency_us_bucket{le="500"} 10
http_request_latency_us_bucket{le="+Inf"} 11
http_request_latency_us_sum 3000
jobs_cache_hits 42
`
	s := parseProm(page)
	if s.series["jobs_cache_hits"] != 42 {
		t.Errorf("jobs_cache_hits = %g, want 42", s.series["jobs_cache_hits"])
	}
	b := s.buckets("http_request_latency_us")
	// Bounds 50, 100, 250, 500, ...: 4 observations at <=100, 6 in
	// (250,500] (the missing 250 bucket is empty), 1 overflow.
	if b[0] != 0 || b[1] != 4 || b[2] != 0 || b[3] != 6 || b[len(b)-1] != 1 {
		t.Errorf("buckets = %v", b)
	}
}
