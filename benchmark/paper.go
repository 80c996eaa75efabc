package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// passStats is what one pass of a workload reports. Every end-to-end
// metric is derived from it (see endToEndValues).
type passStats struct {
	WallS     float64   `json:"wall_s"`     // the whole pass
	ColdS     float64   `json:"cold_s"`     // until every distinct result had been computed once
	Points    int       `json:"points"`     // store points produced or answered
	Results   int       `json:"results"`    // experiments, programs or requests completed
	ResultS   float64   `json:"result_s"`   // the window Results were completed in
	LatencyMS []float64 `json:"latency_ms"` // per request: time from asking to answer
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
}

func (p *passStats) fail(format string, args ...any) {
	p.Failed++
	p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
}

// batchDone records the end of a batch pass: the user issued one
// command and waited for all of it, so the pass is the workload's one
// request, all of it cold, and every time metric is the pass time.
func (p *passStats) batchDone(wall time.Duration) {
	p.WallS, p.ColdS, p.ResultS = wall.Seconds(), wall.Seconds(), wall.Seconds()
	p.LatencyMS = []float64{ms(wall)}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// paperPass does what `repro -run all -json dir` does on a sequential
// lab: it runs exps in order, recording each one's tables to
// dir/<id>.json, then writes the lab's summary rows and measurement
// surface. It returns the pass stats and the sha256 of every output:
// each experiment's rendered text, summary.json and points.mcst, in that
// order. An experiment error counts as a failed result; an error
// writing the outputs is returned.
func paperPass(lab *core.Lab, exps []*experiments.Experiment, dir string) (*passStats, []digest, error) {
	st := &passStats{}
	var digests []digest
	start := time.Now()
	for _, e := range exps {
		var text bytes.Buffer
		ctx := &experiments.Ctx{Lab: lab, W: &text, Rec: telemetry.NewExperimentResult(e.ID, e.Title)}
		st.Attempted++
		if err := e.Run(ctx); err != nil {
			st.fail("%s: %v", e.ID, err)
			continue
		}
		if err := telemetry.WriteJSONFile(filepath.Join(dir, e.ID+".json"), ctx.Rec); err != nil {
			return nil, nil, err
		}
		st.Results++
		digests = append(digests, digest{e.ID, sha(text.Bytes())})
	}

	summary, err := json.MarshalIndent(struct {
		Rows []core.SummaryRow `json:"rows"`
	}{lab.Summary()}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	summary = append(summary, '\n')
	if err := os.WriteFile(filepath.Join(dir, "summary.json"), summary, 0o644); err != nil {
		return nil, nil, err
	}
	pts := lab.Points()
	var surface bytes.Buffer
	if err := store.Write(&surface, pts); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "points.mcst"), surface.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	st.batchDone(time.Since(start))
	st.Points = len(pts)
	digests = append(digests, digest{"summary.json", sha(summary)}, digest{"points.mcst", sha(surface.Bytes())})
	return st, digests, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest is the sha256 of one named paper output.
type digest struct {
	Name string
	Hex  string
}

// checkDigests compares got with the pinned file at path, counting one
// attempted check per output and one failure per mismatch, missing or
// extra entry. With update it rewrites the file instead.
func checkDigests(st *passStats, got []digest, path string, update bool) error {
	if update {
		var b strings.Builder
		for _, d := range got {
			fmt.Fprintf(&b, "%s  %s\n", d.Hex, d.Name)
		}
		return os.WriteFile(path, []byte(b.String()), 0o644)
	}
	want, err := readDigests(path)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, d := range got {
		seen[d.Name] = true
		st.Attempted++
		switch w, ok := want[d.Name]; {
		case !ok:
			st.fail("%s: not in %s", d.Name, path)
		case w != d.Hex:
			st.fail("%s: sha256 %s, pinned %s", d.Name, d.Hex, w)
		}
	}
	var extra []string
	for name := range want {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		st.fail("%s: pinned in %s but not produced", name, path)
	}
	return nil
}

// readDigests parses a "<sha256>  <name>" file.
func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		hexsum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(hexsum) != 64 || name == "" {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = hexsum
	}
	return out, sc.Err()
}

// paperPlan is the simulation work a paper pass does beyond its
// measurements, as the experiments issue it: ablate-model's pipeline
// runs over pipeBenches and the cache studies' sweeps over cacheBenches,
// each on D16/16/2 and DLXe/32/3. The experiments choose these configs
// themselves, so the replay confirms with checkPlan that the pass ran
// exactly this plan.
type paperPlan struct {
	pipeBenches  []*bench.Benchmark
	cacheBenches []*bench.Benchmark
}

func fullPaperPlan() paperPlan {
	return paperPlan{pipeBenches: bench.All(), cacheBenches: bench.CacheBenchmarks()}
}

// ablateModelConfigs are ablate-model's five engines: a 32-bit bus at
// wait states 0-3, and a shared port at one wait state.
func ablateModelConfigs() []pipeline.Config {
	var out []pipeline.Config
	for l := int64(0); l <= 3; l++ {
		out = append(out, pipeline.Config{BusBytes: 4, WaitStates: l})
	}
	return append(out, pipeline.Config{BusBytes: 4, WaitStates: 1, SharedPort: true})
}

// cacheGeometrySets are the three geometry sets the cache experiments
// sweep per benchmark and ISA: the paper's organization at 1K-16K
// (figures 16-19), 8-byte sub-blocks across block sizes (tables 14-16),
// and ablate-cache's associativity and write-policy variants at 4K.
func cacheGeometrySets() [][]cache.Config {
	sizes := []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	var paper, sub []cache.Config
	for _, s := range sizes {
		paper = append(paper, cache.PaperConfig(s))
		for _, bl := range []uint32{8, 16, 32, 64} {
			sub = append(sub, cache.PaperConfigSub(s, bl))
		}
	}
	ablate := []cache.Config{
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 2},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 4},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1, WriteThrough: true},
	}
	return [][]cache.Config{paper, sub, ablate}
}

// simRun is one simulation a workload performs: an image, its budget,
// and the observers the workload attaches (nil for a bare run).
type simRun struct {
	img    *prog.Image
	max    int64
	attach func(*sim.Machine) error
}

// runAll executes runs in order and returns each run's seconds and
// final stats.
func runAll(runs []simRun) ([]float64, []sim.Stats, error) {
	secs := make([]float64, len(runs))
	stats := make([]sim.Stats, len(runs))
	for i, r := range runs {
		start := time.Now()
		m, err := sim.Acquire(r.img)
		if err != nil {
			return nil, nil, err
		}
		if r.attach != nil {
			if err := r.attach(m); err != nil {
				sim.Release(m)
				return nil, nil, err
			}
		}
		err = m.Run(r.max)
		stats[i] = m.Stats
		sim.Release(m)
		secs[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, nil, err
		}
	}
	return secs, stats, nil
}

// plannedRun is one pipeline run (pipeCfgs set) or cache sweep
// (cacheCfgs set) of a paper plan, with the engines or cache systems the
// replay's observed run of it produced.
type plannedRun struct {
	bench     *bench.Benchmark
	spec      *isa.Spec
	pipeCfgs  []pipeline.Config
	cacheCfgs []cache.Config
	engines   []*pipeline.Engine
	systems   []*cache.System
}

// checkPlan confirms that the replayed runs are the ones the pass made.
// The lab's result cache must hold exactly the pass's measurements plus
// one result per planned run. Asking the lab for each planned run must
// then hit that cache, and the result must have the cycles and cache
// statistics the replay computed.
func checkPlan(lab *core.Lab, measurements int, runs []*plannedRun) error {
	sched := lab.Scheduler()
	if n, want := sched.Cache().Len(), measurements+len(runs); n != want {
		return fmt.Errorf("plan: the pass cached %d results, the replay plans %d", n, want)
	}
	misses := sched.Metrics().CacheMisses.Value()
	for _, r := range runs {
		if r.pipeCfgs != nil {
			engines, err := lab.PipelineRun(r.bench, r.spec, r.pipeCfgs)
			if err != nil {
				return err
			}
			for i, e := range engines {
				if e.Cycles() != r.engines[i].Cycles() {
					return fmt.Errorf("pipeline: %s on %s, config %d: %d cycles in the pass, %d replayed",
						r.bench.Name, r.spec.Name, i, e.Cycles(), r.engines[i].Cycles())
				}
			}
			continue
		}
		systems, err := lab.CacheSweep(r.bench, r.spec, r.cacheCfgs)
		if err != nil {
			return err
		}
		for i, s := range systems {
			if s.I.Stats != r.systems[i].I.Stats || s.D.Stats != r.systems[i].D.Stats {
				return fmt.Errorf("cache: %s on %s, geometry %d: statistics differ from the pass's",
					r.bench.Name, r.spec.Name, i)
			}
		}
	}
	if n := sched.Metrics().CacheMisses.Value() - misses; n != 0 {
		return fmt.Errorf("plan: %d planned runs were not made by the pass", n)
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// replayPaper replays a finished paper pass one layer at a time from the
// lab's measurements, timing each layer as a span under parent and
// checking every layer reproduces what the pass produced. wallS is the
// untraced pass time trace.coverage divides by.
func replayPaper(t *tracer, parent string, lab *core.Lab, exps []*experiments.Experiment, plan paperPlan,
	passDigests []digest, wallS float64, dir string) (map[string]float64, error) {
	ms := lab.Measurements()
	benches := map[string]*bench.Benchmark{}
	for _, b := range bench.All() {
		benches[b.Name] = b
	}
	out := map[string]float64{}
	var err error
	layer := func(name string, fn func() error) {
		if err == nil {
			out[name], err = t.layer(parent, strings.TrimSuffix(name, "_s"), fn)
		}
	}

	layer("synth.generate_s", func() error {
		for _, gen := range []func() *bench.Benchmark{bench.Latex, bench.IPL} {
			if b := gen(); b.Source != benches[b.Name].Source {
				return fmt.Errorf("synth: %s source is not reproducible", b.Name)
			}
		}
		return nil
	})

	texts := make([]string, len(ms))
	layer("mcc.genasm_s", func() error {
		for i, m := range ms {
			var e error
			if texts[i], _, e = mcc.GenAsm(m.Bench+".mc", benches[m.Bench].Source, m.Spec); e != nil {
				return e
			}
		}
		return nil
	})
	out["mcc.compiles"] = float64(len(ms))

	imgs := map[string]*prog.Image{}
	layer("asm.assemble_s", func() error {
		for i, m := range ms {
			img, e := asm.Assemble(m.Bench+".mc.s", texts[i], m.Spec)
			if e != nil {
				return e
			}
			if !bytes.Equal(img.Text, m.Image.Text) || !bytes.Equal(img.Data, m.Image.Data) {
				return fmt.Errorf("asm: %s on %s differs from the pass's image", m.Bench, m.Spec.Name)
			}
			imgs[m.Bench+"|"+m.Spec.Name] = img
		}
		return nil
	})
	layer("verify.image_s", func() error {
		for _, m := range ms {
			if rep := verify.Image(imgs[m.Bench+"|"+m.Spec.Name], m.Spec); !rep.OK() {
				return rep.Err()
			}
		}
		return nil
	})
	layer("decode.predecode_s", func() error {
		for _, m := range ms {
			decode.Decode(imgs[m.Bench+"|"+m.Spec.Name])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The runs the pass made: one measurement per (bench, spec), one
	// pipeline run per plan benchmark and ISA, one cache sweep per cache
	// benchmark, ISA and geometry set.
	var measure, pipe, caches []simRun
	var planned []*plannedRun
	for _, m := range ms {
		bus32, bus64, imm := memsys.NewNoCache(4), memsys.NewNoCache(8), &core.ImmStats{}
		measure = append(measure, simRun{imgs[m.Bench+"|"+m.Spec.Name], benches[m.Bench].MaxInstrs,
			func(mc *sim.Machine) error {
				mc.Attach(bus32)
				mc.Attach(bus64)
				mc.Attach(imm)
				return nil
			}})
	}
	paperISAs := []*isa.Spec{isa.D16(), isa.DLXe()}
	for _, b := range plan.pipeBenches {
		for _, spec := range paperISAs {
			img, ok := imgs[b.Name+"|"+spec.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: %s on %s was not measured", b.Name, spec.Name)
			}
			r := &plannedRun{bench: b, spec: spec, pipeCfgs: ablateModelConfigs()}
			planned = append(planned, r)
			pipe = append(pipe, simRun{img, b.MaxInstrs, func(mc *sim.Machine) error {
				for _, cfg := range r.pipeCfgs {
					e := pipeline.New(cfg)
					r.engines = append(r.engines, e)
					mc.Attach(e)
				}
				return nil
			}})
		}
	}
	for _, b := range plan.cacheBenches {
		for _, spec := range paperISAs {
			img, ok := imgs[b.Name+"|"+spec.Name]
			if !ok {
				return nil, fmt.Errorf("cache: %s on %s was not measured", b.Name, spec.Name)
			}
			for _, set := range cacheGeometrySets() {
				r := &plannedRun{bench: b, spec: spec, cacheCfgs: set}
				planned = append(planned, r)
				caches = append(caches, simRun{img, b.MaxInstrs, func(mc *sim.Machine) error {
					for _, cfg := range r.cacheCfgs {
						s, e := cache.NewSystem(cfg, cfg)
						if e != nil {
							return e
						}
						r.systems = append(r.systems, s)
						mc.Attach(s)
					}
					return nil
				}})
			}
		}
	}

	all := append(append(append([]simRun(nil), measure...), pipe...), caches...)
	bareRuns := make([]simRun, len(all))
	for i, r := range all {
		bareRuns[i] = simRun{img: r.img, max: r.max}
	}
	var bare []float64
	var instrs int64
	layer("sim.run_s", func() error {
		var stats []sim.Stats
		var e error
		if bare, stats, e = runAll(bareRuns); e != nil {
			return e
		}
		for i, s := range stats {
			instrs += s.Instrs
			if i < len(ms) && s != ms[i].Stats {
				return fmt.Errorf("sim: %s on %s: stats differ from the pass's", ms[i].Bench, ms[i].Spec.Name)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["sim.instrs"] = float64(instrs)
	out["sim.minstr_per_s"] = float64(instrs) / out["sim.run_s"] / 1e6

	observe := func(name string, runs []simRun, bareSecs []float64) {
		layer(name, func() error {
			_, _, e := runAll(runs)
			return e
		})
		out[name] -= sum(bareSecs)
	}
	observe("memsys.observe_s", measure, bare[:len(measure)])
	observe("pipeline.observe_s", pipe, bare[len(measure):len(measure)+len(pipe)])
	observe("cache.observe_s", caches, bare[len(measure)+len(pipe):])
	if err == nil {
		err = checkPlan(lab, len(ms), planned)
	}

	layer("experiments.render_s", func() error {
		for i, e := range exps {
			var text bytes.Buffer
			if err := e.Run(&experiments.Ctx{Lab: lab, W: &text, Rec: telemetry.NewExperimentResult(e.ID, e.Title)}); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if i < len(passDigests) && passDigests[i].Name == e.ID && sha(text.Bytes()) != passDigests[i].Hex {
				return fmt.Errorf("%s: rerun on the warm lab renders different tables", e.ID)
			}
		}
		return nil
	})

	if err == nil {
		var hits []float64
		s := t.start("core.hit", parent)
		for round := 0; round < 5 && err == nil; round++ {
			for _, m := range ms {
				start := time.Now()
				if _, err = lab.Measure(benches[m.Bench], m.Spec); err != nil {
					break
				}
				hits = append(hits, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		s.end()
		out["core.hit_us"] = median(hits)
	}

	pts := lab.Points()
	path := filepath.Join(dir, "replay.mcst")
	layer("store.write_s", func() error { return store.WriteFile(path, pts) })
	if err != nil {
		return nil, err
	}
	written, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if n := len(passDigests); n > 0 && passDigests[n-1].Name == "points.mcst" && sha(written) != passDigests[n-1].Hex {
		return nil, errors.New("store: replayed surface differs from the pass's points.mcst")
	}
	out["store.bytes"] = float64(len(written))

	covered := 0.0
	for _, name := range []string{"synth.generate_s", "mcc.genasm_s", "asm.assemble_s", "verify.image_s",
		"decode.predecode_s", "sim.run_s", "memsys.observe_s", "pipeline.observe_s", "cache.observe_s",
		"experiments.render_s", "store.write_s"} {
		covered += out[name]
	}
	out["trace.coverage"] = covered / wallS
	return out, nil
}
