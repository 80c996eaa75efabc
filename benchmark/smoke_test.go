package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// The smoke tests run each workload's pass and replay at a small size,
// given as arguments, and check that together they produce exactly the
// metrics BENCHMARK.json declares.

func names(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func wantNames(t *testing.T, what string, got map[string]float64, defs []metricDef) {
	t.Helper()
	want := map[string]float64{}
	for _, d := range defs {
		want[d.Name] = 0
	}
	if fmt.Sprint(names(got)) != fmt.Sprint(names(want)) {
		t.Errorf("%s metrics = %v, want %v", what, names(got), names(want))
	}
}

// endToEndOf checks that a pass yields every end-to-end metric.
func endToEndOf(t *testing.T, st *passStats) {
	t.Helper()
	values, _, err := endToEndValues([]*passStats{st}, []float64{0.01}, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newResult(endToEnd, values, st.Attempted, st.Failed); err != nil {
		t.Fatal(err)
	}
}

// smokeExperiments are n trivial experiments standing in for the
// registry. Each measures one small benchmark on both paper ISAs and
// makes a pipeline run of it with pcfgs and a cache sweep per geometry
// set in csets.
func smokeExperiments(n int, pcfgs []pipeline.Config, csets [][]cache.Config) []*experiments.Experiment {
	var out []*experiments.Experiment
	for i := 0; i < n; i++ {
		out = append(out, &experiments.Experiment{ID: fmt.Sprintf("smoke%d", i), Title: "smoke",
			Run: func(c *experiments.Ctx) error {
				b := bench.ByName("ackermann")
				for _, s := range []*isa.Spec{isa.D16(), isa.DLXe()} {
					m, err := c.Lab.Measure(b, s)
					if err != nil {
						return err
					}
					fmt.Fprintf(c.W, "%s %s %d\n", b.Name, s.Name, m.Stats.Instrs)
					if _, err := c.Lab.PipelineRun(b, s, pcfgs); err != nil {
						return err
					}
					for _, set := range csets {
						if _, err := c.Lab.CacheSweep(b, s, set); err != nil {
							return err
						}
					}
				}
				return nil
			}})
	}
	return out
}

func TestPaperSmoke(t *testing.T) {
	dir := t.TempDir()
	lab := core.NewLab()
	exps := smokeExperiments(2, ablateModelConfigs(), cacheGeometrySets())
	st, digests, err := paperPass(lab, exps, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Results != len(exps) || len(digests) != len(exps)+2 {
		t.Fatalf("pass: %+v, %d digests", st, len(digests))
	}
	endToEndOf(t, st)

	pinned := filepath.Join(dir, "paper.sha256")
	if err := checkDigests(st, digests, pinned, true); err != nil {
		t.Fatal(err)
	}
	if err := checkDigests(st, digests, pinned, false); err != nil || st.Failed != 0 {
		t.Fatalf("digests do not match the file just written: %v %v", err, st.Errors)
	}
	tampered := append([]digest(nil), digests...)
	tampered[0].Hex = strings.Repeat("0", 64)
	if err := checkDigests(st, tampered, pinned, false); err != nil || st.Failed != 1 {
		t.Fatalf("a changed output was not caught: %v, %d failed", err, st.Failed)
	}

	ack := []*bench.Benchmark{bench.ByName("ackermann")}
	tr := newTracer("paper", 1)
	layers, err := replayPaper(tr, "", lab, exps, paperPlan{pipeBenches: ack, cacheBenches: ack}, digests, st.WallS, dir)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, "paper replay", layers, paperLayers)
	if layers["sim.instrs"] <= 0 || layers["trace.coverage"] <= 0 {
		t.Errorf("replay measured nothing: %v", layers)
	}

	// A plan the pass did not run is caught: first a plan that leaves
	// out the cache sweeps the pass made.
	if _, err := replayPaper(tr, "", lab, exps, paperPlan{pipeBenches: ack}, digests, st.WallS, dir); err == nil ||
		!strings.Contains(err.Error(), "replay plans") {
		t.Errorf("replay of a plan without the cache sweeps: err = %v, want a plan mismatch", err)
	}
	// Then a pass whose experiments changed their pipeline configs.
	drift := core.NewLab()
	dexps := smokeExperiments(1, ablateModelConfigs()[1:], nil)
	dst, ddigests, err := paperPass(drift, dexps, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayPaper(tr, "", drift, dexps, paperPlan{pipeBenches: ack}, ddigests, dst.WallS, dir); err == nil ||
		!strings.Contains(err.Error(), "not made by the pass") {
		t.Errorf("replay after the pass changed its pipeline configs: err = %v, want a plan mismatch", err)
	}
}

func TestSweepSmoke(t *testing.T) {
	dir := t.TempDir()
	lab := core.NewParallelLab(2)
	spec := sweepSpec(5, 2)
	st, path, err := sweepPass(lab, spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Results != 12 || st.Points != 12*2*3*4 {
		t.Fatalf("pass: %+v", st)
	}
	endToEndOf(t, st)
	layers, err := replaySweep(newTracer("sweep", 2), "", spec, path, st.WallS, dir)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, "sweep replay", layers, sweepLayers)
	if layers["mcc.compiles"] != 24 {
		t.Errorf("replay compiled %g images, want 24", layers["mcc.compiles"])
	}
}

func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "simd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/simd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building simd: %v", err)
	}
	p, setup, err := startSimd(bin, dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []servedKey
	for _, k := range servedKeys() {
		if k.Bench == "ackermann" || k.Bench == "solver" || k.Bench == "queens" {
			keys = append(keys, k)
		}
	}
	cfg := sessionConfig{keys: keys, warm: 200}
	st, layers, err := serveSession(p, 9, cfg, newTracer("serve", 3), "", true)
	mb, stopErr := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	if setup <= 0 || mb <= 0 {
		t.Errorf("set-up %gs, peak RSS %g MiB", setup, mb)
	}
	if st.Failed != 0 || st.Results != cfg.warm || st.Attempted != cfg.warm+3 {
		t.Fatalf("session: %+v", st)
	}
	endToEndOf(t, st)
	wantNames(t, "serve", layers, serveLayers)
	if layers["jobs.cache_misses"] != float64(len(keys)) {
		t.Errorf("jobs.cache_misses = %g, want one per key (%d)", layers["jobs.cache_misses"], len(keys))
	}
}

func TestPinnedDigestsCoverEveryExperiment(t *testing.T) {
	want, err := readDigests(filepath.Join("testdata", "paper.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	exps := experiments.All()
	if len(want) != len(exps)+2 {
		t.Errorf("testdata/paper.sha256 pins %d outputs, want %d experiments + summary.json + points.mcst",
			len(want), len(exps))
	}
	for _, e := range exps {
		if _, ok := want[e.ID]; !ok {
			t.Errorf("experiment %s has no pinned digest", e.ID)
		}
	}
}
