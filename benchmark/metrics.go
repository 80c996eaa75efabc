package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the numbers a user of the lab waits on, printed by every
// untraced run. Each workload defines them over its own pass; README.md
// gives the per-workload meaning.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"points_per_s", "points/s"},
	{"cold_s", "s"},
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// Per-layer metrics, printed by every traced run. A traced run replays
// all three workloads, so each name carries the workload whose inputs
// the layer was replayed over.
var paperLayers = []metricDef{
	{"synth.generate_s", "s"},
	{"mcc.genasm_s", "s"},
	{"mcc.compiles", "count"},
	{"asm.assemble_s", "s"},
	{"verify.image_s", "s"},
	{"decode.predecode_s", "s"},
	{"sim.run_s", "s"},
	{"sim.instrs", "count"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"memsys.observe_s", "s"},
	{"pipeline.observe_s", "s"},
	{"cache.observe_s", "s"},
	{"experiments.render_s", "s"},
	{"core.hit_us", "us"},
	{"store.write_s", "s"},
	{"store.bytes", "bytes"},
	{"trace.coverage", "ratio"},
}

var sweepLayers = []metricDef{
	{"synth.generate_s", "s"},
	{"mcc.genasm_s", "s"},
	{"mcc.compiles", "count"},
	{"asm.assemble_s", "s"},
	{"verify.image_s", "s"},
	{"static.analyze_s", "s"},
	{"decode.predecode_s", "s"},
	{"sim.run_s", "s"},
	{"sim.instrs", "count"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"memsys.observe_s", "s"},
	{"store.write_s", "s"},
	{"store.bytes", "bytes"},
	{"trace.coverage", "ratio"},
}

var serveLayers = []metricDef{
	{"store.query_ms", "ms"},
	{"simd.batch_p50_ms", "ms"},
	{"simd.batch_p99_ms", "ms"},
	{"simd.query_p50_ms", "ms"},
	{"simd.experiment_p50_ms", "ms"},
	{"simd.server_p50_us", "us"},
	{"simd.server_p99_us", "us"},
	{"jobs.cache_hits", "count"},
	{"jobs.cache_misses", "count"},
	{"jobs.coalesced", "count"},
	{"jobs.queue_wait_p99_us", "us"},
	{"store.file_bytes", "bytes"},
}

// perLayer is the full traced metric set: every layer metric prefixed
// with the workload it was measured on.
func perLayer() []metricDef {
	var out []metricDef
	for _, w := range []struct {
		name string
		defs []metricDef
	}{{"paper", paperLayers}, {"sweep", sweepLayers}, {"serve", serveLayers}} {
		for _, d := range w.defs {
			out = append(out, metricDef{w.name + "." + d.Name, d.Unit})
		}
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs values with defs, failing unless values holds exactly
// the defined names: the printed set must match BENCHMARK.json.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	r := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", name)
			}
		}
	}
	return r, nil
}

func (r *result) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}
