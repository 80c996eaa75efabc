package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// The throughput benchmarks time whole runs of queens on D16 through
// the pooled machine, one per observer shape the lab attaches: none
// (BenchmarkRun), the pipeline engine (BenchmarkRunEngine) and the
// paper's five cache systems (BenchmarkRunCaches). They report
// simulated instructions per second, and the hot loop can be profiled
// in place with -cpuprofile. TestRunDoesNotAllocate holds the loop's
// allocation budget.

// benchQueens compiles queens for D16 once, then times b.N runs, each
// on a pooled machine with attach's observers.
func benchQueens(b *testing.B, attach func(*sim.Machine)) {
	b.Helper()
	prog := bench.ByName("queens")
	if prog == nil {
		b.Fatal("benchmark queens missing")
	}
	c, err := mcc.Compile(prog.Name+".mc", prog.Source, isa.D16())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m, err := sim.Acquire(c.Image)
		if err != nil {
			b.Fatal(err)
		}
		attach(m)
		if err := m.Run(prog.MaxInstrs); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instrs
		sim.Release(m)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkRun(b *testing.B) {
	benchQueens(b, func(*sim.Machine) {})
}

func BenchmarkRunEngine(b *testing.B) {
	benchQueens(b, func(m *sim.Machine) {
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
	})
}

// BenchmarkRunCaches attaches the Section 4.1 cache systems of 1K to
// 16K (cache.PaperConfig), the shape of a cache-sweep run: the machine
// calls each system directly through the flat cache kernel.
func BenchmarkRunCaches(b *testing.B) {
	benchQueens(b, func(m *sim.Machine) {
		for size := uint32(1024); size <= 16384; size *= 2 {
			sys, err := cache.NewSystem(cache.PaperConfig(size), cache.PaperConfig(size))
			if err != nil {
				b.Fatal(err)
			}
			m.Attach(sys)
		}
	})
}
