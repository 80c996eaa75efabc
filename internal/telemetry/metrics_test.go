package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the registry's thread
// safety proof, and the totals check its correctness.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10_000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("events")
			g := r.Gauge("level")
			h := r.FixedHistogram("latency", nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("events").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	h := r.FixedHistogram("latency", nil)
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var bucketSum int64
	for _, b := range h.snapshot("latency").Hist {
		bucketSum += b.Count
	}
	if bucketSum != h.Count() {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count())
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestRegisterFuncAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	backing := int64(42)
	r.RegisterFunc("b.live", func() int64 { return backing })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("exported %d metrics, want 2", len(doc.Metrics))
	}
	// Sorted by name, and the func gauge reads the live value.
	if doc.Metrics[0].Name != "a.count" || doc.Metrics[0].Value != 3 {
		t.Errorf("metric[0] = %+v", doc.Metrics[0])
	}
	if doc.Metrics[1].Name != "b.live" || doc.Metrics[1].Value != 42 {
		t.Errorf("metric[1] = %+v", doc.Metrics[1])
	}
}

func TestMetricKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}
