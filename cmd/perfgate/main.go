// Command perfgate is the continuous-benchmark harness: it re-runs the
// repository's benchmark suite (every experiment from bench_test.go,
// plus a simulator-throughput microbench) in-process, writes the
// results as BENCH_<n>.json at the repository root, and compares them
// against the latest prior BENCH file.
//
// Usage:
//
//	perfgate                    # run everything, write BENCH_<n+1>.json,
//	                            # exit 1 on any >10% regression
//	perfgate -bench 'fig4|sim'  # only benchmarks matching the regexp
//	perfgate -threshold 0.25    # tolerate up to 25% noise
//	perfgate -benchtime 1x      # single iteration (fast, noisy)
//	perfgate -surface a.mcst,b.mcst
//	                            # diff two stored measurement surfaces
//	                            # instead; exit 1 on any >threshold
//	                            # cycle regression (see docs/STORE.md)
//
// The first run has no baseline and always passes. ns/op and allocs/op
// regress when they grow; simulator instrs/sec and store points/sec
// regress when they drop.
// See docs/OBSERVABILITY.md for the BENCH_*.json schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json reports")
	threshold := flag.Float64("threshold", 0.10, "relative slowdown that fails the gate")
	benchtime := flag.String("benchtime", "1s", "testing -benchtime value per benchmark (heavy experiments still run once; cheap ones iterate to stability)")
	pattern := flag.String("bench", "", "only run benchmarks whose name matches this regexp")
	surface := flag.String("surface", "", "diff two measurement stores (baseline.mcst,current.mcst) instead of running benchmarks")
	testing.Init()
	flag.Parse()
	if *surface != "" {
		if err := runSurface(*surface, *threshold); err != nil {
			fatal(err)
		}
		return
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatal(err)
	}

	sel := regexp.MustCompile("")
	if *pattern != "" {
		var err error
		if sel, err = regexp.Compile(*pattern); err != nil {
			fatal(err)
		}
	}

	prev, prevSeq, err := LatestReport(*dir)
	if err != nil {
		fatal(err)
	}
	cur := &Report{
		Seq:       prevSeq + 1,
		GoVersion: runtime.Version(),
		UnixTime:  time.Now().Unix(),
	}

	for _, e := range experiments.All() {
		name := "experiment/" + e.ID
		if !sel.MatchString(name) {
			continue
		}
		exp := e
		r, err := run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &experiments.Ctx{Lab: core.NewLab(), W: io.Discard}
				if err := exp.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	for _, jb := range []struct {
		name    string
		workers int
	}{
		{"suite/fig4/jobs=1", 1},
		{"suite/fig4/jobs=ncpu", runtime.NumCPU()},
	} {
		if !sel.MatchString(jb.name) {
			continue
		}
		r, err := benchSuiteFig4(jb.name, jb.workers)
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("sim/throughput") {
		r, err := benchSimThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("sim/step") {
		r, err := benchSimStep()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("cache/sweep") {
		r, err := benchCacheSweep()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("cache/lab-sweep") {
		r, err := benchLabSweep()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("pipe/throughput") {
		r, err := benchPipeThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("store/throughput") {
		r, err := benchStoreThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("synth/throughput") {
		r, err := benchSynthThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("sweep/throughput") {
		r, err := benchSweepThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if sel.MatchString("static/throughput") {
		r, err := benchStaticThroughput()
		if err != nil {
			fatal(err)
		}
		cur.Benchmarks = append(cur.Benchmarks, r)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmarks match -bench %q", *pattern))
	}

	path, err := WriteReport(*dir, cur)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(cur.Benchmarks))

	if prev == nil {
		fmt.Println("no prior BENCH file: baseline established, gate passes")
		return
	}
	deltas := Compare(prev, cur, *threshold)
	bad := Regressions(deltas)
	fmt.Printf("compared against BENCH_%d.json: %d metrics, %d regressions (threshold %.0f%%)\n",
		prevSeq, len(deltas), len(bad), *threshold*100)
	for _, d := range bad {
		fmt.Printf("  REGRESSION %-30s %-15s %.4g -> %.4g (%.1f%% worse)\n",
			d.Name, d.Metric, d.Old, d.New, (d.Ratio-1)*100)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// run executes one benchmark function and converts the result. A
// b.Fatal inside the function aborts the benchmark, which testing
// reports as zero iterations.
func run(name string, fn func(*testing.B)) (Result, error) {
	fmt.Printf("running %s...\n", name)
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return Result{}, fmt.Errorf("%s: benchmark failed", name)
	}
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}, nil
}

// benchSuiteFig4 times the fig4 suite end to end — compiles included,
// on a cold lab each iteration — the way `repro -run fig4 -jobs N` runs
// it. jobs=1 uses the inline scheduler (the sequential path); jobs=ncpu
// uses a worker pool sized to the machine, so the pair exposes the
// scheduler's wall-clock win (or, on one core, its overhead).
func benchSuiteFig4(name string, workers int) (Result, error) {
	exp := experiments.ByID("fig4")
	if exp == nil {
		return Result{}, fmt.Errorf("%s: experiment fig4 missing", name)
	}
	return run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var lab *core.Lab
			if workers > 1 {
				lab = core.NewLabWith(jobs.New(jobs.Config{
					Workers:    workers,
					QueueDepth: 4*workers + 64,
				}))
			} else {
				lab = core.NewLab()
			}
			ctx := &experiments.Ctx{Lab: lab, W: io.Discard}
			if err := exp.Run(ctx); err != nil {
				b.Fatal(err)
			}
			if err := lab.Scheduler().Shutdown(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchQueens times whole runs of the compute-bound queens benchmark on
// D16, compiled once outside the timed region: each iteration takes a
// machine (from the pool, or freshly built when pooled is false),
// attaches attach's observers and runs to completion. It reports
// simulated instructions per wall-clock second and returns the path
// length of one run.
func benchQueens(name string, pooled bool, attach func(*sim.Machine) error) (Result, float64, error) {
	prog := bench.ByName("queens")
	if prog == nil {
		return Result{}, 0, fmt.Errorf("%s: benchmark queens missing", name)
	}
	c, err := mcc.Compile(prog.Name+".mc", prog.Source, isa.D16())
	if err != nil {
		return Result{}, 0, err
	}
	var instrs, iters int64
	r, err := run(name, func(b *testing.B) {
		b.ReportAllocs()
		instrs, iters = 0, int64(b.N)
		for i := 0; i < b.N; i++ {
			var m *sim.Machine
			var err error
			if pooled {
				m, err = sim.Acquire(c.Image)
			} else {
				m, err = sim.New(c.Image)
			}
			if err != nil {
				b.Fatal(err)
			}
			if attach != nil {
				if err := attach(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Run(prog.MaxInstrs); err != nil {
				b.Fatal(err)
			}
			instrs += m.Stats.Instrs
			if pooled {
				sim.Release(m)
			}
		}
	})
	if err != nil {
		return Result{}, 0, err
	}
	var perIter float64
	if iters > 0 {
		perIter = float64(instrs) / float64(iters)
		if r.NsPerOp > 0 {
			r.InstrsPerSec = perIter * 1e9 / r.NsPerOp
		}
	}
	return r, perIter, nil
}

// benchSimThroughput measures raw simulator speed — simulated
// instructions per wall-clock second — with no observer attached.
func benchSimThroughput() (Result, error) {
	r, _, err := benchQueens("sim/throughput", true, nil)
	return r, err
}

// maxAllocsPerInstr is sim/step's absolute allocation budget: the
// pooled, devirtualized simulation loop must stay under this many heap
// allocations per simulated instruction, every run, regardless of any
// baseline. (The steady-state loop allocates nothing; the budget only
// leaves room for the per-run engine construction amortized over the
// program's path length.)
const maxAllocsPerInstr = 0.1

// benchSimStep measures the production hot path — pooled machine
// acquisition, the shared predecoded table, and the devirtualized
// pipeline engine — and derives allocs_per_instr, the report's
// allocation-density metric. Unlike the relative regression gates, the
// budget here is absolute: exceeding it fails the run even with no
// baseline to compare against.
func benchSimStep() (Result, error) {
	r, perIter, err := benchQueens("sim/step", true, func(m *sim.Machine) error {
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	if perIter > 0 {
		r.AllocsPerInstr = r.AllocsPerOp / perIter
	}
	if r.AllocsPerInstr >= maxAllocsPerInstr {
		return Result{}, fmt.Errorf("sim/step: %.4f allocations per simulated instruction, absolute budget is %.2f",
			r.AllocsPerInstr, maxAllocsPerInstr)
	}
	return r, nil
}

// benchCacheSweep measures simulator throughput with the paper's five
// Section 4.1 cache systems (1K to 16K, PaperConfig) attached to one
// run, the shape of every cache-sweep point: the machine calls the
// systems directly, and each probe goes through the flat cache kernel.
func benchCacheSweep() (Result, error) {
	r, _, err := benchQueens("cache/sweep", true, func(m *sim.Machine) error {
		for size := uint32(1024); size <= 16384; size *= 2 {
			sys, err := cache.NewSystem(cache.PaperConfig(size), cache.PaperConfig(size))
			if err != nil {
				return err
			}
			m.Attach(sys)
		}
		return nil
	})
	return r, err
}

// benchLabSweep times the paper pass's cache-sweep point end to end: a
// fresh sequential lab compiles ipl for D16 and runs it with the five
// Section 4.1 cache systems attached, spread over the host's idle cores
// as shards. It reports wall-clock ns/op and simulated instructions
// (of one execution) per second.
func benchLabSweep() (Result, error) {
	b := bench.ByName("ipl")
	if b == nil {
		return Result{}, fmt.Errorf("cache/lab-sweep: benchmark ipl missing")
	}
	var cfgs []cache.Config
	for size := uint32(1024); size <= 16384; size *= 2 {
		cfgs = append(cfgs, cache.PaperConfig(size))
	}
	m, err := core.NewLab().Measure(b, isa.D16())
	if err != nil {
		return Result{}, err
	}
	r, err := run("cache/lab-sweep", func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, err := core.NewLab().CacheSweep(b, isa.D16(), cfgs); err != nil {
				tb.Fatal(err)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	r.InstrsPerSec = float64(m.Stats.Instrs) * 1e9 / r.NsPerOp
	return r, nil
}

// benchPipeThroughput measures simulator throughput with the
// cycle-accounting pipeline engine attached and its flight recorder
// DISABLED (RecordDepth zero) — the always-on production shape. Its 2%
// gate is the recorder-overhead budget: the recorder hook sits on the
// engine's charge path, and this benchmark fails the gate if a change
// makes the disabled recorder cost more than 2% of engine throughput.
func benchPipeThroughput() (Result, error) {
	r, _, err := benchQueens("pipe/throughput", false, func(m *sim.Machine) error {
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	r.GateThreshold = 0.02
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfgate:", err)
	os.Exit(1)
}
