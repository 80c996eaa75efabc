package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// allShards asks for one shard per observer (run caps k at len(obs)).
const allShards = 1 << 10

// raceBuild is set under the race detector (raceon_test.go).
var raceBuild bool

// labWithShards returns a sequential lab whose runs use at most k
// shards.
func labWithShards(k int) *Lab {
	l := NewLab()
	l.shards = k
	return l
}

// shardGeometries are the cache sweeps the paper pass makes: Section
// 4.1's 1K–16K set, Tables 14–16's 8-byte sub-block set, and
// ablate-cache's associativity/write-through set.
func shardGeometries() map[string][]cache.Config {
	var paper, sub []cache.Config
	for s := uint32(1 << 10); s <= 16<<10; s *= 2 {
		paper = append(paper, cache.PaperConfig(s))
		for _, bl := range []uint32{8, 16, 32, 64} {
			sub = append(sub, cache.PaperConfigSub(s, bl))
		}
	}
	return map[string][]cache.Config{
		"paper": paper,
		"sub8":  sub,
		"ablate": {
			{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1},
			{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 2},
			{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 4},
			{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1, WriteThrough: true},
		},
	}
}

// ablateModelConfigs are ablate-model's five engines: a 32-bit bus at
// wait states 0–3, plus a shared port at one wait state.
func ablateModelConfigs() []pipeline.Config {
	var cfgs []pipeline.Config
	for l := int64(0); l <= 3; l++ {
		cfgs = append(cfgs, pipeline.Config{BusBytes: 4, WaitStates: l})
	}
	return append(cfgs, pipeline.Config{BusBytes: 4, WaitStates: 1, SharedPort: true})
}

var shardAccountConfigs = []AccountConfig{
	{BusBytes: 4, WaitStates: 1},
	{BusBytes: 4, CacheBytes: 4096, MissPenalty: 8},
	{BusBytes: 8, WaitStates: 2},
}

// shardImages are the images the equivalence test covers: two small
// programs and one cache benchmark, on both encodings. The race
// detector slows the simulator tenfold, and the core package already
// runs close to go test's timeout under it, so race builds check the
// two small programs only; the plain test run covers all three.
func shardImages(t *testing.T) []struct {
	b    *bench.Benchmark
	spec *isa.Spec
} {
	var out []struct {
		b    *bench.Benchmark
		spec *isa.Spec
	}
	names := []string{"ackermann", "solver", "ipl"}
	if raceBuild {
		names = names[:2]
	}
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s missing", name)
		}
		for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
			out = append(out, struct {
				b    *bench.Benchmark
				spec *isa.Spec
			}{b, spec})
		}
	}
	return out
}

// TestShardEquivalence runs every observer-carrying kind on one shard,
// two shards and one shard per observer, and requires identical
// results: the observers cannot tell how the run was split.
func TestShardEquivalence(t *testing.T) {
	labs := []*Lab{labWithShards(1), labWithShards(2), labWithShards(allShards)}
	for _, img := range shardImages(t) {
		b, spec := img.b, img.spec
		t.Run(b.Name+"/"+spec.Name, func(t *testing.T) {
			geoms := shardGeometries()
			for _, name := range []string{"paper", "sub8", "ablate"} {
				cfgs := geoms[name]
				var ref []*cache.System
				for i, l := range labs {
					systems, err := l.CacheSweep(b, spec, cfgs)
					if err != nil {
						t.Fatalf("%s sweep, lab %d: %v", name, i, err)
					}
					if i == 0 {
						ref = systems
						continue
					}
					for j, s := range systems {
						if s.I.Stats != ref[j].I.Stats || s.D.Stats != ref[j].D.Stats {
							t.Errorf("%s sweep, geometry %d: shards=%d stats %+v/%+v, one shard %+v/%+v",
								name, j, l.shards, s.I.Stats, s.D.Stats, ref[j].I.Stats, ref[j].D.Stats)
						}
					}
				}
			}
			var refEng []*pipeline.Engine
			for i, l := range labs {
				engines, err := l.PipelineRun(b, spec, ablateModelConfigs())
				if err != nil {
					t.Fatalf("pipeline run, lab %d: %v", i, err)
				}
				if i == 0 {
					refEng = engines
					continue
				}
				for j, e := range engines {
					if e.Cycles() != refEng[j].Cycles() || e.Breakdown() != refEng[j].Breakdown() {
						t.Errorf("pipeline config %d: shards=%d cycles %d %v, one shard %d %v",
							j, l.shards, e.Cycles(), e.Breakdown(), refEng[j].Cycles(), refEng[j].Breakdown())
					}
				}
			}

			var refAcct *AccountRun
			for i, l := range labs {
				acct, err := l.Account(b, spec, shardAccountConfigs)
				if err != nil {
					t.Fatalf("account run, lab %d: %v", i, err)
				}
				if i == 0 {
					refAcct = acct
					continue
				}
				for j, e := range acct.Engines {
					if e.Cycles() != refAcct.Engines[j].Cycles() || !reflect.DeepEqual(e.PerPC(), refAcct.Engines[j].PerPC()) {
						t.Errorf("account config %d: shards=%d per-PC rows differ from one shard's", j, l.shards)
					}
				}
			}
		})
	}
}

// shardedSweep is a five-geometry cache sweep, sharded when the lab
// allows.
func shardedSweep(l *Lab, b *bench.Benchmark) error {
	_, err := l.CacheSweep(b, isa.D16(), shardGeometries()["paper"])
	return err
}

// settleGoroutines waits for the goroutine count to fall back to n.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the run, want %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardFailuresMatchOneShard holds a sharded run's failures to the
// one-shard run's error text, and checks no shard goroutine outlives
// the run.
func TestShardFailuresMatchOneShard(t *testing.T) {
	base := bench.ByName("ackermann")
	budget := *base
	budget.MaxInstrs = 1000
	wrong := *base
	wrong.Expect = "not the output\n"
	before := runtime.NumGoroutine()
	for _, b := range []*bench.Benchmark{&budget, &wrong} {
		want := shardedSweep(labWithShards(1), b)
		if want == nil {
			t.Fatalf("%+q: one-shard run succeeded, want a failure", b.Expect)
		}
		for _, k := range []int{2, allShards} {
			got := shardedSweep(labWithShards(k), b)
			if got == nil || got.Error() != want.Error() {
				t.Errorf("shards=%d: error %v, one shard %v", k, got, want)
			}
		}
	}
	settleGoroutines(t, before)
}

// panicky is an observer that panics on its first instruction.
type panicky struct{}

func (panicky) Exec(uint32, isa.Instr) { panic("observer exploded") }
func (panicky) Load(uint32, uint32)    {}
func (panicky) Store(uint32, uint32)   {}

// TestShardPanicIsJobError puts a panicking observer in shard 1 and
// requires the scheduler's panic error on the job, on both an inline
// and a pooled lab.
func TestShardPanicIsJobError(t *testing.T) {
	b, spec := bench.ByName("ackermann"), isa.D16()
	for _, l := range []*Lab{NewLab(), NewParallelLab(1)} {
		l.shards = 2
		before := runtime.NumGoroutine()
		_, err := await[any](l.submit(context.Background(), false, "panic-run", b, spec, nil,
			func(c *mcc.Compiled) (any, error) {
				_, _, err := l.run("panic-run", b, spec, c, nil, pipeline.New(pipeline.Config{BusBytes: 4}), panicky{})
				return nil, err
			}))
		if err == nil || !strings.HasPrefix(err.Error(), "jobs: ") || !strings.Contains(err.Error(), "panicked: observer exploded") {
			t.Errorf("workers=%d: error %v, want the job's panic error", l.sched.Workers(), err)
		}
		settleGoroutines(t, before)
		if err := l.sched.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAgreeNamesDivergentShard(t *testing.T) {
	ok := shard{out: "42\n", stats: sim.Stats{Instrs: 100}}
	fault := errors.New("fault at pc 0x10")
	for _, tc := range []struct {
		name   string
		shards []shard
		want   string // "" = agreement
	}{
		{"agree", []shard{ok, ok, ok}, ""},
		{"stats", []shard{ok, ok, {out: "42\n", stats: sim.Stats{Instrs: 101}}}, "shard 2 of 3: stats"},
		{"output", []shard{ok, {out: "43\n", stats: ok.stats}}, "shard 1 of 2: output"},
		{"error", []shard{ok, {err: fault}}, "shard 1 of 2: error \"fault at pc 0x10\""},
	} {
		out, st, err := agree(tc.shards)
		if tc.want == "" {
			if err != nil || out != ok.out || st != ok.stats {
				t.Errorf("%s: agree = %q %+v %v, want shard 0's outcome", tc.name, out, st, err)
			}
			continue
		}
		if !errors.Is(err, errDiverged) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: agree error %v, want errDiverged naming %q", tc.name, err, tc.want)
		}
	}
	// Shards that fail alike report the failure itself.
	if _, _, err := agree([]shard{{err: fault}, {err: fault}}); err != fault {
		t.Errorf("common failure: agree error %v, want %v", err, fault)
	}
}

func TestShardsFor(t *testing.T) {
	for _, tc := range []struct{ procs, workers, want int }{
		{2, 0, 2}, {2, 1, 2}, {2, 2, 1}, {8, 2, 4}, {1, 0, 1},
	} {
		if got := shardsFor(tc.procs, tc.workers); got != tc.want {
			t.Errorf("shardsFor(%d, %d) = %d, want %d", tc.procs, tc.workers, got, tc.want)
		}
	}
	// A pool with a worker per core keeps one machine per point.
	l := NewParallelLab(runtime.GOMAXPROCS(0))
	defer l.sched.Shutdown(context.Background())
	if l.shards != 1 {
		t.Errorf("NewParallelLab(GOMAXPROCS) shards = %d, want 1", l.shards)
	}
}

// TestShardTraceLanes records a sharded cache sweep and checks that
// each shard's run span sits on its own lane, the kind span carries the
// shard count, and every lane nests properly.
func TestShardTraceLanes(t *testing.T) {
	tr := telemetry.NewTracer()
	telemetry.SetGlobalTracer(tr)
	defer telemetry.SetGlobalTracer(nil)
	if err := shardedSweep(labWithShards(3), bench.ByName("ackermann")); err != nil {
		t.Fatal(err)
	}
	lanes := map[int][]telemetry.Event{}
	runLanes := map[int]bool{}
	for _, e := range tr.Events() {
		lanes[e.TID] = append(lanes[e.TID], e)
		switch e.Name {
		case "run":
			runLanes[e.TID] = true
		case "cache-sweep":
			if e.Args["shards"] != "3" || e.TID != 1 {
				t.Errorf("cache-sweep span on lane %d with shards=%q, want lane 1 and 3", e.TID, e.Args["shards"])
			}
		}
	}
	if !reflect.DeepEqual(runLanes, map[int]bool{1: true, 2: true, 3: true}) {
		t.Errorf("run spans on lanes %v, want 1, 2 and 3", runLanes)
	}
	for tid, evs := range lanes {
		if err := checkNesting(evs); err != nil {
			t.Errorf("lane %d: %v", tid, err)
		}
	}
}

// checkNesting requires start-ordered spans of one lane to be either
// disjoint or contained in one another. eps absorbs the microsecond
// float rounding of the export.
func checkNesting(evs []telemetry.Event) error {
	const eps = 1e-3
	var open []telemetry.Event
	for _, e := range evs {
		for len(open) > 0 && open[len(open)-1].TS+open[len(open)-1].Dur <= e.TS+eps {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			if top := open[len(open)-1]; e.TS+e.Dur > top.TS+top.Dur+eps {
				return fmt.Errorf("%s at %v+%v overlaps %s at %v+%v without nesting",
					e.Name, e.TS, e.Dur, top.Name, top.TS, top.Dur)
			}
		}
		open = append(open, e)
	}
	return nil
}
