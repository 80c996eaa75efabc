package pipeline_test

import (
	"fmt"
	"repro/internal/pipeline"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/prog"
	"repro/internal/sim"
)

// acctProgram exercises every attribution path: integer loops with
// loads/stores (load delay + data waits), double-precision arithmetic
// with long-latency divides (FPU interlocks + FPSR reads via the
// compare-driven branches), and calls (fetch discontinuities).
const acctProgram = `
int arr[64];

double kernel(double b, double c) {
	double x = 1.0;
	int it = 0;
	while (it < 8) {
		double f = x * x * x + b * x - c;
		double fp = 3.0 * x * x + b;
		x = x - f / fp;
		it++;
	}
	return x;
}

int main() {
	int i;
	int sum = 0;
	for (i = 0; i < 64; i++) arr[i] = i * 3;
	for (i = 0; i < 64; i++) sum += arr[i] * arr[63 - i];
	double acc = 0.0;
	for (i = 1; i <= 6; i++) {
		double b = i;
		acc += kernel(b / 2.0, b);
	}
	if (acc < 0.0) print_str("neg");
	print_int(sum);
	print_char('\n');
	return 0;
}
`

// runAccounted compiles acctProgram for spec, runs it under one engine
// per config (single execution), and returns the engines plus the
// symbol table.
func runAccounted(t *testing.T, spec *isa.Spec, cfgs []pipeline.Config) ([]*pipeline.Engine, *prog.SymTable) {
	t.Helper()
	c, err := mcc.Compile("acct.mc", acctProgram, spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(c.Image)
	if err != nil {
		t.Fatal(err)
	}
	var engines []*pipeline.Engine
	for _, cfg := range cfgs {
		e := pipeline.New(cfg)
		e.EnablePCAccounting()
		engines = append(engines, e)
		m.Attach(e)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return engines, prog.NewSymTable(c.Image)
}

// TestAttributionInvariant is the accounting property test: across both
// ISAs, bus widths 4 and 8, wait states 0-3, shared vs split port, and
// cacheless vs cached memory, the bucket sums must equal pipeline.Engine.Cycles
// exactly — globally, per PC, and per function.
func TestAttributionInvariant(t *testing.T) {
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		var cfgs []pipeline.Config
		for _, bus := range []uint32{4, 8} {
			for _, waits := range []int64{0, 1, 2, 3} {
				for _, shared := range []bool{false, true} {
					cfgs = append(cfgs, pipeline.Config{BusBytes: bus, WaitStates: waits, SharedPort: shared})
				}
			}
			sys, err := cache.NewSystem(cache.PaperConfig(1024), cache.PaperConfig(1024))
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, pipeline.Config{BusBytes: bus, Caches: sys, MissPenalty: 8, SharedPort: bus == 4})
		}
		engines, st := runAccounted(t, spec, cfgs)
		for i, e := range engines {
			name := fmt.Sprintf("%s/%+v", spec, cfgs[i])
			bd := e.Breakdown()
			if got, want := bd.Sum(), e.Cycles(); got != want {
				t.Errorf("%s: bucket sum %d != cycles %d (%v)", name, got, want, bd)
			}
			if bd[pipeline.BUseful] != e.Instrs {
				t.Errorf("%s: useful bucket %d != instrs %d", name, bd[pipeline.BUseful], e.Instrs)
			}
			if e.Instrs > 0 && bd[pipeline.BDrain] != pipeline.DrainCycles {
				t.Errorf("%s: drain bucket %d != %d", name, bd[pipeline.BDrain], pipeline.DrainCycles)
			}
			if cfgs[i].Caches == nil && bd[pipeline.BCacheMiss] != 0 {
				t.Errorf("%s: cacheless engine charged cache_miss %d", name, bd[pipeline.BCacheMiss])
			}
			if cfgs[i].Caches != nil && (bd[pipeline.BFetchWait] != 0 || bd[pipeline.BDataWait] != 0) {
				t.Errorf("%s: cached engine charged wait-state buckets %d/%d",
					name, bd[pipeline.BFetchWait], bd[pipeline.BDataWait])
			}

			// Per-PC rows reconstruct the global attribution exactly.
			var pcSum pipeline.Breakdown
			for _, row := range e.PerPC() {
				for b := 0; b < pipeline.NumBuckets; b++ {
					pcSum[b] += row.Buckets[b]
				}
			}
			pcSum[pipeline.BDrain] += bd[pipeline.BDrain] // drain is global-only
			if pcSum != bd {
				t.Errorf("%s: per-PC sums %v != global %v", name, pcSum, bd)
			}

			// Per-function rows cover the same cycles and fetch bytes.
			var fnCycles, fnBytes int64
			for _, fa := range e.PerFunc(st) {
				fnCycles += fa.Cycles
				fnBytes += fa.FetchBytes
			}
			if want := e.Cycles() - bd[pipeline.BDrain]; fnCycles != want {
				t.Errorf("%s: per-func cycles %d != %d", name, fnCycles, want)
			}
			if fnBytes != e.FetchBytes() {
				t.Errorf("%s: per-func fetch bytes %d != %d", name, fnBytes, e.FetchBytes())
			}

			// The telemetry exchange form validates.
			if err := bd.Snapshot(name).Check(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}

		// Interlock causes must actually show up on this workload.
		bd := engines[0].Breakdown() // bus 4, waits 0, split, cacheless
		if bd[pipeline.BLoadDelay] == 0 || bd[pipeline.BFPU] == 0 {
			t.Errorf("%s: expected load-delay and FPU stalls, got %v", spec, bd)
		}
	}
}

// TestAttributionMatchesLegacyCounters pins the bucket totals to the
// engine's long-standing aggregate counters.
func TestAttributionMatchesLegacyCounters(t *testing.T) {
	cfgs := []pipeline.Config{{BusBytes: 4, WaitStates: 2, SharedPort: true}}
	engines, _ := runAccounted(t, isa.DLXe(), cfgs)
	e := engines[0]
	bd := e.Breakdown()
	if got := bd[pipeline.BLoadDelay] + bd[pipeline.BFPU] + bd[pipeline.BDataWait]; got > e.Interlock+e.DataBusStall {
		t.Errorf("interlock-side buckets %d exceed Interlock+DataBusStall %d", got, e.Interlock+e.DataBusStall)
	}
	fetchSide := bd[pipeline.BFetchWait] + bd[pipeline.BPortContention] + bd[pipeline.BDataWait]
	if fetchSide+bd[pipeline.BLoadDelay]+bd[pipeline.BFPU] != e.FetchStall+e.Interlock {
		t.Errorf("stall buckets %d != FetchStall+Interlock %d",
			fetchSide+bd[pipeline.BLoadDelay]+bd[pipeline.BFPU], e.FetchStall+e.Interlock)
	}
}

// TestCachedEngineFasterThanWaitStates: with a warm cache most accesses
// hit, so the cached engine at penalty 8 must beat the cacheless engine
// at 8 wait states on a loopy program.
func TestCachedEngineFasterThanWaitStates(t *testing.T) {
	sys, err := cache.NewSystem(cache.PaperConfig(4096), cache.PaperConfig(4096))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []pipeline.Config{
		{BusBytes: 4, WaitStates: 8},
		{BusBytes: 4, Caches: sys, MissPenalty: 8},
	}
	engines, _ := runAccounted(t, isa.DLXe(), cfgs)
	if engines[1].Cycles() >= engines[0].Cycles() {
		t.Errorf("cached engine (%d cycles) should beat 8 wait states (%d cycles)",
			engines[1].Cycles(), engines[0].Cycles())
	}
	if engines[1].Breakdown()[pipeline.BCacheMiss] == 0 {
		t.Errorf("cached engine reported no miss-penalty cycles")
	}
}
