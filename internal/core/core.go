// Package core is the library's public facade: it ties the compiler,
// assembler, simulator and memory-system models together into the
// measurement pipeline the paper's experiments are built on.
//
// The central type is Lab, a memoizing measurement harness: it compiles a
// benchmark for a target configuration once, runs it once with the
// standard models filled in (fetch-buffer models for both bus widths and
// Table 4's immediate statistics, all read off the run loop's counters),
// and caches the result, so each of the paper's tables and figures
// re-reads the same underlying run. A BusProfile, the cacheless view
// sweeps expand, is derived from that same measurement.
//
// The lab offers four kinds of run: measure (no observer), cache-sweep,
// pipeline-run and account-run (timing observers on one execution).
// Every kind goes through one simulation site (run) and one
// job-submission helper (submit), and every result lives in one table,
// the scheduler's content-addressed result cache.
//
// Points execute one at a time, in order, on a sequential lab; a
// parallel lab spreads them over its workers. Either way a point with
// several timing observers may run as parallel shards, one machine per
// group of observers, on the cores the workers leave idle.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Measurement is the full result of compiling and running one benchmark
// under one target configuration.
type Measurement struct {
	Bench string
	Spec  *isa.Spec

	// Static measures.
	Size         int // stripped binary bytes (text + data), the density measure
	TextBytes    int
	DataBytes    int
	PoolBytes    int // D16 literal pools (included in TextBytes)
	StaticInstrs int
	Spills       int

	// Dynamic measures.
	Output string
	Stats  sim.Stats

	// Cacheless memory-interface models (Appendix A.2), read off the
	// run loop's fetch-block counters and Loads+Stores (see loopBus).
	Bus32 *memsys.NoCache // 32-bit fetch bus
	Bus64 *memsys.NoCache // 64-bit fetch bus

	// Immediate-field classification (Table 4), read off the run
	// loop's class counters (see loopImm).
	Imm ImmStats

	Image *prog.Image
}

// Cycles evaluates total cycles for a cacheless machine with the given
// fetch-bus width (bytes) and wait states.
func (m *Measurement) Cycles(busBytes uint32, waitStates int64) int64 {
	bus := m.Bus32
	if busBytes == 8 {
		bus = m.Bus64
	}
	return bus.Cycles(m.Stats.Instrs, m.Stats.Interlocks, waitStates)
}

// CPI is cycles per (own) instruction for the cacheless machine.
func (m *Measurement) CPI(busBytes uint32, waitStates int64) float64 {
	return float64(m.Cycles(busBytes, waitStates)) / float64(m.Stats.Instrs)
}

// ImmStats counts dynamic instructions whose immediate operands exceed
// the D16 field limits (the paper's Table 4 classification, whose one
// rule is isa.ImmClassOf), measured on a DLXe execution.
type ImmStats struct {
	Total    int64
	CmpImm   int64 // compare-immediate instructions
	CmpImm8  int64 // of CmpImm, comparands that fit 8 bits (Section 3.3.3's proposal)
	WideALU  int64 // ALU immediates that exceed 5 unsigned bits
	WideMem  int64 // memory displacements beyond D16's reach
	WideMVI  int64 // move-immediates beyond 9 signed bits
	FarCalls int64 // J-type calls/jumps (D16 uses a pool load + register jump)
}

// Exec implements sim.Observer: it counts one executed instruction by
// its predecoded Table 4 class.
func (s *ImmStats) Exec(_ uint32, op decode.Op) {
	s.Total++
	s.add(op.Imm, 1)
}

// add counts n instructions of class c.
func (s *ImmStats) add(c isa.ImmClass, n int64) {
	switch c {
	case isa.ImmCmp8:
		s.CmpImm += n
		s.CmpImm8 += n
	case isa.ImmCmp:
		s.CmpImm += n
	case isa.ImmWideALU:
		s.WideALU += n
	case isa.ImmWideMem:
		s.WideMem += n
	case isa.ImmWideMVI:
		s.WideMVI += n
	case isa.ImmFarCall:
		s.FarCalls += n
	}
}

// Load implements sim.Observer.
func (s *ImmStats) Load(addr uint32, size uint32) {}

// Store implements sim.Observer.
func (s *ImmStats) Store(addr uint32, size uint32) {}

// Lab memoizes measurements across experiments and executes them
// through a jobs.Scheduler, so the same harness serves three shapes of
// caller:
//
//   - sequential experiments (NewLab: an inline scheduler executes each
//     point on the calling goroutine, exactly the pre-scheduler order),
//   - parallel sweeps (NewParallelLab: points fan out across a worker
//     pool; identical in-flight points coalesce),
//   - services (NewLabWith: the caller shapes queue depth, timeouts and
//     metrics, and uses the Try ticket API for backpressure).
//
// Memoization is two-layered. Compiles are memoized per benchmark×ISA
// in one-shot flights. Runs live in the scheduler's content-addressed
// result cache, keyed by the benchmark's name, budget and source, the
// configuration's name and the simulated memory configuration, so
// repeated submissions — including ones arriving over the batch HTTP
// API — are served without compiling or re-simulating. A run's job
// compiles (through the memo) on the worker that runs it. A failed run
// is not cached: resubmitting it runs it again. Forget drops one
// program's compiles and results once a caller is done with them.
type Lab struct {
	sched  *jobs.Scheduler
	shards int // most machines one run's observers are spread over (see run)
	mu     sync.Mutex
	comp   map[compileKey]*flight[*mcc.Compiled]
	srcs   map[string]source // by benchmark name (see sourceKey)
}

// compileKey identifies one compile: what it compiles (the digest of
// the source, as run keys fold it in) and for which configuration.
type compileKey struct {
	src  jobs.Key
	spec string
}

// source is a benchmark's source with its digest.
type source struct {
	text string
	key  jobs.Key
}

// flight is a one-shot memoization cell: the first caller runs fn,
// every later or concurrent caller shares the outcome.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

func flightDo[K comparable, T any](l *Lab, m map[K]*flight[T], k K, fn func() (T, error)) (T, error) {
	l.mu.Lock()
	f, ok := m[k]
	if !ok {
		f = &flight[T]{}
		m[k] = f
	}
	l.mu.Unlock()
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// NewLab returns a sequential measurement harness: points execute one
// at a time, in order, inline on the calling goroutine, preserving the
// exact behavior and ordering of a scheduler-free run. A point with
// several observers (a cache sweep, a multi-engine pipeline run) may run
// as parallel shards across the host's idle cores; its results are the
// same as on one machine.
func NewLab() *Lab { return NewLabWith(jobs.New(jobs.Config{})) }

// NewParallelLab returns a harness whose points execute on a pool of
// the given number of workers, with scheduler metrics published in the
// process-wide telemetry registry.
func NewParallelLab(workers int) *Lab {
	return NewLabWith(jobs.New(jobs.Config{
		Workers:    workers,
		QueueDepth: 4*workers + 64,
		Registry:   telemetry.Default(),
	}))
}

// NewLabWith returns a harness running on a caller-shaped scheduler.
// Its runs shard their observers over the cores the scheduler's workers
// leave idle (see shardsFor).
func NewLabWith(s *jobs.Scheduler) *Lab {
	return &Lab{
		sched:  s,
		shards: shardsFor(runtime.GOMAXPROCS(0), s.Workers()),
		comp:   map[compileKey]*flight[*mcc.Compiled]{},
		srcs:   map[string]source{},
	}
}

// shardsFor is the most shards one run may use: the cores per scheduler
// worker, where an inline scheduler (0 workers) counts as one worker. A
// pool with at least as many workers as cores runs one machine per run.
func shardsFor(procs, workers int) int {
	return max(1, procs/max(1, workers))
}

// Scheduler returns the lab's job scheduler (for metrics registration
// and graceful shutdown).
func (l *Lab) Scheduler() *jobs.Scheduler { return l.sched }

func key(b *bench.Benchmark, spec *isa.Spec) string { return b.Name + "|" + spec.Name }

// Compile compiles (with memoization) one benchmark for one target on
// the calling goroutine. Every run's job calls it on the worker that
// runs it, so runs of one image share one compile. The memo is keyed by
// the source, not the name: a benchmark submitted again under a known
// name with another source compiles that source.
func (l *Lab) Compile(b *bench.Benchmark, spec *isa.Spec) (*mcc.Compiled, error) {
	return flightDo(l, l.comp, compileKey{l.sourceKey(b), spec.Name}, func() (*mcc.Compiled, error) {
		return mcc.Compile(b.Name+".mc", b.Source, spec)
	})
}

// sourceKey returns the digest of b's source that run keys fold in. The
// lab keeps the last digest per benchmark name with the source it
// hashed, so a repeated submission compares the source (by pointer,
// when it is the same string) instead of hashing it again.
func (l *Lab) sourceKey(b *bench.Benchmark) jobs.Key {
	l.mu.Lock()
	s, ok := l.srcs[b.Name]
	l.mu.Unlock()
	if ok && s.text == b.Source {
		return s.key
	}
	s = source{b.Source, jobs.NewHasher("source").String(b.Source).Key()}
	l.mu.Lock()
	l.srcs[b.Name] = s
	l.mu.Unlock()
	return s.key
}

// Forget drops b's compiles for specs and its source digest from the
// memos, and the results of the given completed tickets from the result
// cache. A caller that has drained a program's points calls it so the
// lab holds nothing of that program; a later request compiles and runs
// it again.
func (l *Lab) Forget(b *bench.Benchmark, specs []*isa.Spec, done ...*jobs.Ticket) {
	src := l.sourceKey(b)
	l.mu.Lock()
	for _, spec := range specs {
		delete(l.comp, compileKey{src, spec.Name})
	}
	delete(l.srcs, b.Name)
	l.mu.Unlock()
	for _, t := range done {
		l.sched.Cache().Delete(t)
	}
}

// runError is the one way a failed run reports itself: the run kind,
// the benchmark and the configuration, wrapping the cause.
func runError(kind string, b *bench.Benchmark, spec *isa.Spec, err error) error {
	return fmt.Errorf("core: %s %s on %s: %w", kind, b.Name, spec, err)
}

// submit submits one run of the given kind of b for spec as a job. The
// job's content key is the kind, the run's identity labels and budget,
// the kind's parameters (added by params, when non-nil) and the digest
// of b's source, so every distinct public call owns exactly one
// result-cache entry and a cache hit compiles nothing. The job compiles
// b (through the memo) and calls fn on a scheduler worker: a compile
// error comes back from Wait as Compile returned it, a run error
// wrapped by runError. try selects fail-fast backpressure (a full queue
// returns jobs.ErrOverloaded) over blocking until space frees or ctx
// ends.
func (l *Lab) submit(ctx context.Context, try bool, kind string, b *bench.Benchmark, spec *isa.Spec,
	params func(*jobs.Hasher), fn func(*mcc.Compiled) (any, error)) (*jobs.Ticket, error) {
	h := jobs.NewHasher(kind).String(b.Name).String(spec.Name).Int(b.MaxInstrs)
	if params != nil {
		params(h)
	}
	src := l.sourceKey(b)
	job := jobs.Job{
		Name: kind + " " + key(b, spec),
		Key:  h.Bytes(src[:]).Key(),
		Fn: func(context.Context) (any, error) {
			c, err := l.Compile(b, spec)
			if err != nil {
				return nil, err
			}
			v, err := fn(c)
			if err != nil {
				return nil, runError(kind, b, spec, err)
			}
			return v, nil
		},
	}
	if try {
		return l.sched.TrySubmit(ctx, job)
	}
	return l.sched.Submit(ctx, job)
}

// await is the synchronous tail of every public run: wait for the
// submitted ticket and assert the kind's result type.
func await[T any](t *jobs.Ticket, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	v, err := t.Wait(context.Background())
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// run is core's one simulation site. It executes a compiled benchmark
// with obs attached, inside a span named after the run kind with a
// nested "run" span around the loop itself, stops at the benchmark's
// instruction budget, and checks the output against b.Expect. It holds
// no lab locks: concurrent runs of distinct points are the scheduler's
// normal mode.
//
// A run with several observers executes as up to l.shards shards: the
// observers are dealt round-robin into groups, and each group rides its
// own pooled machine running the same image, all at once. Shard 0 runs
// on the calling goroutine; run joins the others before it returns.
// Every observer sees the same instruction stream it would see on one
// machine, so the shards must agree on output and statistics (see
// agree), which makes every sharded run a determinism check.
func (l *Lab) run(kind string, b *bench.Benchmark, spec *isa.Spec, c *mcc.Compiled, obs ...sim.Observer) (string, sim.Stats, error) {
	k := max(1, min(len(obs), l.shards))
	id := []telemetry.Attr{telemetry.String("bench", b.Name), telemetry.String("config", spec.Name)}
	span := telemetry.StartSpan(kind, append(id,
		telemetry.String("observers", strconv.Itoa(len(obs))), telemetry.String("shards", strconv.Itoa(k)))...)
	defer span.End()
	shards := make([]shard, k)
	for i, o := range obs {
		shards[i%k].obs = append(shards[i%k].obs, o)
	}
	var wg sync.WaitGroup
	defer wg.Wait() // a panic in shard 0 still joins the others
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(s *shard, lane int) {
			defer wg.Done()
			defer func() { s.panicked = recover() }()
			s.exec(b, c, lane, id)
		}(&shards[i], 1+i)
	}
	shards[0].exec(b, c, 1, id)
	wg.Wait()
	// A shard's panic resurfaces on the job's goroutine, where the
	// scheduler's recover turns it into the job's error.
	for i := range shards {
		if p := shards[i].panicked; p != nil {
			panic(p)
		}
	}
	return agree(shards)
}

// shard is one machine's share of a run: its observers and what the
// machine finished with.
type shard struct {
	obs      []sim.Observer
	out      string
	stats    sim.Stats
	err      error
	panicked any
}

// exec runs the benchmark on a pooled machine with the shard's
// observers attached, recording the loop's span on the given trace lane.
func (s *shard) exec(b *bench.Benchmark, c *mcc.Compiled, lane int, id []telemetry.Attr) {
	machine, err := sim.Acquire(c.Image)
	if err != nil {
		s.err = err
		return
	}
	defer sim.Release(machine)
	for _, o := range s.obs {
		machine.Attach(o)
	}
	rspan := telemetry.StartSpanOn(lane, "run", id...)
	err = machine.Run(b.MaxInstrs)
	rspan.End()
	if err != nil {
		s.err = err
		return
	}
	out := machine.Output.String()
	if b.Expect != "" && out != b.Expect {
		s.err = fmt.Errorf("output %q, want %q", out, b.Expect)
		return
	}
	s.out, s.stats = out, machine.Stats
}

// errDiverged marks shards of one run that finished differently.
var errDiverged = errors.New("shards diverged")

// agree returns the outcome every shard of a run reached, or an
// errDiverged error naming the first shard whose error, output or
// statistics differ from shard 0's.
func agree(shards []shard) (string, sim.Stats, error) {
	s0 := &shards[0]
	for i := 1; i < len(shards); i++ {
		s := &shards[i]
		var diff string
		switch {
		case fmt.Sprint(s.err) != fmt.Sprint(s0.err):
			diff = fmt.Sprintf("error %q, shard 0 %q", fmt.Sprint(s.err), fmt.Sprint(s0.err))
		case s.out != s0.out:
			diff = fmt.Sprintf("output %q, shard 0 %q", s.out, s0.out)
		case s.stats != s0.stats:
			diff = fmt.Sprintf("stats %+v, shard 0 %+v", s.stats, s0.stats)
		default:
			continue
		}
		return "", sim.Stats{}, fmt.Errorf("%w: shard %d of %d: %s", errDiverged, i, len(shards), diff)
	}
	if s0.err != nil {
		return "", sim.Stats{}, s0.err
	}
	return s0.out, s0.stats, nil
}

// loopBus is the cacheless bus model of the given width read off the
// run loop's own counters instead of observed: a one-block fetch buffer
// requests exactly the blocks the loop counts (sim.Stats.FetchBlocks),
// and every load or store is one data request. It is nil for a width
// the loop does not count. TestBusCounterIdentity holds it to real
// memsys.NoCache observers.
func loopBus(st sim.Stats, width uint32) *memsys.NoCache {
	n, ok := st.FetchBlocks(width)
	if !ok {
		return nil
	}
	return &memsys.NoCache{BusBytes: width, IRequests: n, DRequests: st.DataOps()}
}

// loopImm is the Table 4 classification read off the run loop's class
// counters (sim.Stats.Imm). TestBusCounterIdentity holds it to an
// attached ImmStats observer.
func loopImm(st sim.Stats) ImmStats {
	s := ImmStats{Total: st.Instrs}
	for c, n := range st.Imm {
		s.add(isa.ImmClass(c), n)
	}
	return s
}

// Measure compiles and runs one benchmark under one configuration (with
// memoization). It attaches no observer: both bus models and the
// immediate classification are read off the run loop's counters.
func (l *Lab) Measure(b *bench.Benchmark, spec *isa.Spec) (*Measurement, error) {
	return await[*Measurement](l.MeasureTicket(context.Background(), b, spec))
}

// MeasureTicket submits the measurement as a job and returns its
// ticket without waiting, so callers can fan a set of points out across
// the lab's workers and collect them in a deterministic order. A full
// queue blocks until space frees or ctx ends.
func (l *Lab) MeasureTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec) (*jobs.Ticket, error) {
	return l.measureTicket(ctx, b, spec, false)
}

// TryMeasureTicket is MeasureTicket with fail-fast backpressure: a full
// queue returns jobs.ErrOverloaded instead of blocking (servers map it
// to 503).
func (l *Lab) TryMeasureTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec) (*jobs.Ticket, error) {
	return l.measureTicket(ctx, b, spec, true)
}

// measureTicket submits a measurement.
func (l *Lab) measureTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec, try bool) (*jobs.Ticket, error) {
	return l.submit(ctx, try, "measure", b, spec, nil, func(c *mcc.Compiled) (any, error) {
		m := &Measurement{
			Bench:        b.Name,
			Spec:         spec,
			Size:         c.Image.Size(),
			TextBytes:    len(c.Image.Text),
			DataBytes:    len(c.Image.Data),
			PoolBytes:    c.Image.PoolBytes,
			StaticInstrs: c.Image.TextInstrs,
			Spills:       c.Spills,
			Image:        c.Image,
		}
		var err error
		if m.Output, m.Stats, err = l.run("measure", b, spec, c); err != nil {
			return nil, err
		}
		m.Bus32, m.Bus64 = loopBus(m.Stats, 4), loopBus(m.Stats, 8)
		m.Imm = loopImm(m.Stats)
		return m, nil
	})
}

// CacheSweep runs one benchmark under one configuration with a split I/D
// cache system per geometry, all attached to a single execution. Results
// are served from the scheduler's content-addressed cache, keyed by the
// program's source and every field of every geometry.
func (l *Lab) CacheSweep(b *bench.Benchmark, spec *isa.Spec, cfgs []cache.Config) ([]*cache.System, error) {
	params := func(h *jobs.Hasher) {
		for _, cfg := range cfgs {
			h.Int(int64(cfg.Size)).Int(int64(cfg.BlockBytes)).Int(int64(cfg.SubBytes)).Int(int64(cfg.Assoc)).
				Bool(cfg.WriteThrough).Bool(cfg.NoWriteAllocate).Bool(cfg.NoPrefetch)
		}
	}
	return await[[]*cache.System](l.submit(context.Background(), false, "cache-sweep", b, spec, params,
		func(c *mcc.Compiled) (any, error) {
			systems := make([]*cache.System, len(cfgs))
			obs := make([]sim.Observer, len(cfgs))
			for i, cfg := range cfgs {
				sys, err := cache.NewSystem(cfg, cfg)
				if err != nil {
					return nil, err
				}
				systems[i], obs[i] = sys, sys
			}
			_, _, err := l.run("cache-sweep", b, spec, c, obs...)
			return systems, err
		}))
}

// PipelineRun executes one benchmark under the event-driven cycle-level
// pipeline model (one engine per memory configuration, all attached to a
// single execution). Results are served from the scheduler's
// content-addressed cache, keyed by every hashable field of every
// configuration; the configurations must be cacheless (a
// pipeline.Config carrying its own cache.System is not hashable).
func (l *Lab) PipelineRun(b *bench.Benchmark, spec *isa.Spec, cfgs []pipeline.Config) ([]*pipeline.Engine, error) {
	params := func(h *jobs.Hasher) {
		for _, cfg := range cfgs {
			h.Int(int64(cfg.BusBytes)).Int(cfg.WaitStates).Bool(cfg.SharedPort).Int(cfg.MissPenalty).
				Int(int64(cfg.RecordDepth))
		}
	}
	return await[[]*pipeline.Engine](l.submit(context.Background(), false, "pipeline-run", b, spec, params,
		func(c *mcc.Compiled) (any, error) {
			engines := make([]*pipeline.Engine, len(cfgs))
			obs := make([]sim.Observer, len(cfgs))
			for i, cfg := range cfgs {
				engines[i] = pipeline.New(cfg)
				obs[i] = engines[i]
			}
			_, _, err := l.run("pipeline-run", b, spec, c, obs...)
			return engines, err
		}))
}

// AccountRun is one cycle-accounted execution: engines with per-PC
// attribution enabled (one per requested memory configuration, all fed
// by a single run) plus the symbol table to fold attributions per
// function.
type AccountRun struct {
	Engines []*pipeline.Engine
	Syms    *prog.SymTable
}

// Account executes one benchmark with cycle-accounting engines attached
// (per-PC attribution on) and returns them with the image's symbol
// table. Results are served from the scheduler's content-addressed
// cache, keyed by the program's source and the config set; cached
// configurations build a fresh cache.System per engine from CacheBytes.
func (l *Lab) Account(b *bench.Benchmark, spec *isa.Spec, cfgs []AccountConfig) (*AccountRun, error) {
	return await[*AccountRun](l.AccountTicket(context.Background(), b, spec, cfgs))
}

// AccountTicket submits the accounted run as a job and returns its
// ticket without waiting — the fan-out form of Account, used by the
// sweep engine for cached-memory grid cells.
func (l *Lab) AccountTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec, cfgs []AccountConfig) (*jobs.Ticket, error) {
	params := func(h *jobs.Hasher) {
		for _, cfg := range cfgs {
			h.Int(int64(cfg.BusBytes)).Int(cfg.WaitStates).Bool(cfg.SharedPort).
				Int(int64(cfg.CacheBytes)).Int(cfg.MissPenalty)
		}
	}
	return l.submit(ctx, false, "account-run", b, spec, params, func(c *mcc.Compiled) (any, error) {
		acct := &AccountRun{Syms: prog.NewSymTable(c.Image)}
		obs := make([]sim.Observer, len(cfgs))
		for i, ac := range cfgs {
			pc := pipeline.Config{
				BusBytes:    ac.BusBytes,
				WaitStates:  ac.WaitStates,
				SharedPort:  ac.SharedPort,
				MissPenalty: ac.MissPenalty,
			}
			if ac.CacheBytes > 0 {
				sys, err := cache.NewSystem(cache.PaperConfig(ac.CacheBytes), cache.PaperConfig(ac.CacheBytes))
				if err != nil {
					return nil, err
				}
				pc.Caches = sys
			}
			e := pipeline.New(pc)
			e.EnablePCAccounting()
			acct.Engines = append(acct.Engines, e)
			obs[i] = e
		}
		_, _, err := l.run("account-run", b, spec, c, obs...)
		return acct, err
	})
}

// AccountConfig describes one accounted memory configuration by value
// (so it can key the memoization map); CacheBytes > 0 selects the
// cached interface with the paper's cache organization.
type AccountConfig struct {
	BusBytes    uint32
	WaitStates  int64
	SharedPort  bool
	CacheBytes  uint32
	MissPenalty int64
}

// Measurements returns every measurement in the scheduler's result
// cache, sorted by benchmark then configuration (the export order of
// the suite summary).
func (l *Lab) Measurements() []*Measurement {
	var out []*Measurement
	l.sched.Cache().Range(func(v any) {
		if m, ok := v.(*Measurement); ok {
			out = append(out, m)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Spec.Name < out[j].Spec.Name
	})
	return out
}

// SummaryRow is the machine-readable scalar summary of one measurement:
// the static and dynamic measures every experiment derives from, plus
// cacheless CPI at wait states 0–3 for both fetch-bus widths. One row
// per bench×config lands in repro's summary.json so the performance
// trajectory can be diffed across changes.
type SummaryRow struct {
	Bench        string `json:"bench"`
	Config       string `json:"config"`
	SizeBytes    int    `json:"size_bytes"`
	TextBytes    int    `json:"text_bytes"`
	PoolBytes    int    `json:"pool_bytes"`
	DataBytes    int    `json:"data_bytes"`
	StaticInstrs int    `json:"static_instrs"`
	Spills       int    `json:"spills"`
	Instrs       int64  `json:"instrs"`
	Interlocks   int64  `json:"interlocks"`
	Loads        int64  `json:"loads"`
	PoolLoads    int64  `json:"pool_loads"`
	Stores       int64  `json:"stores"`
	FetchWords   int64  `json:"fetch_words"`
	// CPIBus32/CPIBus64 index by wait states ℓ = 0..3.
	CPIBus32 []float64 `json:"cpi_bus32"`
	CPIBus64 []float64 `json:"cpi_bus64"`
}

// Summary converts one measurement to its exported scalar row.
func (m *Measurement) Summary() SummaryRow {
	row := SummaryRow{
		Bench:        m.Bench,
		Config:       m.Spec.Name,
		SizeBytes:    m.Size,
		TextBytes:    m.TextBytes,
		PoolBytes:    m.PoolBytes,
		DataBytes:    m.DataBytes,
		StaticInstrs: m.StaticInstrs,
		Spills:       m.Spills,
		Instrs:       m.Stats.Instrs,
		Interlocks:   m.Stats.Interlocks,
		Loads:        m.Stats.Loads,
		PoolLoads:    m.Stats.PoolLoads,
		Stores:       m.Stats.Stores,
		FetchWords:   m.Stats.FetchWords,
	}
	for l := int64(0); l <= 3; l++ {
		row.CPIBus32 = append(row.CPIBus32, m.CPI(4, l))
		row.CPIBus64 = append(row.CPIBus64, m.CPI(8, l))
	}
	return row
}

// Summary returns scalar rows for every memoized measurement.
func (l *Lab) Summary() []SummaryRow {
	ms := l.Measurements()
	rows := make([]SummaryRow, 0, len(ms))
	for _, m := range ms {
		rows = append(rows, m.Summary())
	}
	return rows
}

// RegisterMetrics publishes the measurement's scalars and its
// memory-interface models as live gauges under prefix (typically
// "<bench>.<config>.").
func (m *Measurement) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	stats := &m.Stats
	reg.RegisterFunc(prefix+"size_bytes", func() int64 { return int64(m.Size) })
	reg.RegisterFunc(prefix+"static_instrs", func() int64 { return int64(m.StaticInstrs) })
	reg.RegisterFunc(prefix+"spills", func() int64 { return int64(m.Spills) })
	reg.RegisterFunc(prefix+"instrs", func() int64 { return stats.Instrs })
	reg.RegisterFunc(prefix+"interlocks", func() int64 { return stats.Interlocks })
	reg.RegisterFunc(prefix+"data_ops", stats.DataOps)
	m.Bus32.Register(reg, prefix+"bus32.")
	m.Bus64.Register(reg, prefix+"bus64.")
}

// Suite returns the benchmark suite (re-exported for callers that only
// import core).
func Suite() []*bench.Benchmark { return bench.All() }

// Configs returns the paper's five compiler configurations.
func Configs() []*isa.Spec { return isa.PaperConfigs() }
