package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatches pins the printed metric sets to the ones
// BENCHMARK.json declares, names and units both, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}

// TestColdOnlyPassesCountForColdAlone checks that serve's cold-only
// sessions add cold phases to cold_s and touch no other metric.
func TestColdOnlyPassesCountForColdAlone(t *testing.T) {
	full := &passStats{WallS: 30, ColdS: 3, Points: 300, Results: 20, ResultS: 27, LatencyMS: seq(20)}
	passes := []*passStats{full, {WallS: 4, ColdS: 4}, {WallS: 5, ColdS: 5}}
	v, _, err := endToEndValues(passes, []float64{0.01}, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if v["cold_s"] != 4 || v["wall_s"] != 30 || v["points_per_s"] != 10 || v["latency_p50_ms"] != 10 {
		t.Errorf("values = %v, want cold_s 4 (median of 3, 4, 5) and the rest from the full session", v)
	}
}

func TestNewResultNeedsExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b_ms", "ms"}}
	if _, err := newResult(defs, map[string]float64{"a_s": 1}, 1, 0); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a_s": 1, "b_ms": 2, "c": 3}, 1, 0); err == nil {
		t.Error("an undefined metric was accepted")
	}
	r, err := newResult(defs, map[string]float64{"a_s": 1, "b_ms": 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Metrics["b_ms"] != (metricValue{2, "ms"}) {
		t.Errorf("result = %+v", r)
	}
}
