package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func TestMeasureMemoizes(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	m1, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second Measure did not return the cached result")
	}
	if m1.Stats.Instrs == 0 || m1.Size == 0 {
		t.Error("empty measurement")
	}
}

func TestMeasureChecksExpectedOutput(t *testing.T) {
	lab := NewLab()
	bad := &bench.Benchmark{
		Name:      "bad",
		Source:    "int main() { print_int(1); return 0; }",
		Expect:    "2",
		MaxInstrs: 10000,
	}
	if _, err := lab.Measure(bad, isa.D16()); err == nil {
		t.Fatal("expected an output-mismatch error")
	}
	// Errors are memoized too.
	if _, err := lab.Measure(bad, isa.D16()); err == nil {
		t.Fatal("expected the cached error")
	}
}

func TestMeasurementModels(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("queens")
	m, err := lab.Measure(b, isa.DLXe())
	if err != nil {
		t.Fatal(err)
	}
	// On DLXe with a 32-bit bus every instruction is one fetch request.
	if m.Bus32.IRequests != m.Stats.Instrs {
		t.Errorf("32-bit-bus DLXe fetches %d != instrs %d", m.Bus32.IRequests, m.Stats.Instrs)
	}
	if m.Bus64.IRequests >= m.Bus32.IRequests {
		t.Error("wider bus should issue fewer fetch requests")
	}
	// Zero-wait CPI is 1 + interlock rate.
	want := 1 + float64(m.Stats.Interlocks)/float64(m.Stats.Instrs)
	if got := m.CPI(4, 0); got != want {
		t.Errorf("CPI(4,0) = %v, want %v", got, want)
	}
	if m.Cycles(4, 2) <= m.Cycles(4, 1) {
		t.Error("cycles must grow with wait states")
	}
}

func TestCacheSweepMemoizes(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	cfgs := []cache.Config{cache.PaperConfig(1024), cache.PaperConfig(2048)}
	s1, err := lab.CacheSweep(b, isa.D16(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2 {
		t.Fatalf("%d systems, want 2", len(s1))
	}
	s2, err := lab.CacheSweep(b, isa.D16(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if &s1[0] == &s2[0] && s1[0] != s2[0] {
		t.Error("sweep not memoized")
	}
	if s1[0].I.Stats.Reads == 0 {
		t.Error("no cache activity recorded")
	}
	// Larger cache, no more misses.
	if s1[1].I.Stats.Misses() > s1[0].I.Stats.Misses() {
		t.Error("larger cache missed more")
	}
}

// TestCacheSweepKeyCoversGeometry checks that the cache-sweep result
// key hashes every cache.Config field: geometry lists differing in one
// field only are distinct runs (one result-cache miss each), and each
// returns the statistics of a direct run of its own geometry. matrix
// at 1 KiB is conflict-bound, so its direct-mapped and 2-way runs
// differ.
func TestCacheSweepKeyCoversGeometry(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("matrix")
	base := cache.PaperConfig(1024)
	variants := []cache.Config{base, base, base, base, base}
	variants[1].Assoc = 2
	variants[2].WriteThrough = true
	variants[3].NoWriteAllocate = true
	variants[4].NoPrefetch = true
	c, err := lab.Compile(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	misses := lab.Scheduler().Metrics().CacheMisses.Value()
	wants := make([]*cache.System, len(variants))
	for i, cfg := range variants {
		got, err := lab.CacheSweep(b, isa.D16(), []cache.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := cache.NewSystem(cfg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(c.Image)
		if err != nil {
			t.Fatal(err)
		}
		m.Attach(want)
		if err := m.Run(b.MaxInstrs); err != nil {
			t.Fatal(err)
		}
		wants[i] = want
		if got[0].I.Stats != want.I.Stats || got[0].D.Stats != want.D.Stats {
			t.Errorf("variant %d (%+v): lab returned I %+v D %+v, a direct run gives I %+v D %+v",
				i, cfg, got[0].I.Stats, got[0].D.Stats, want.I.Stats, want.D.Stats)
		}
	}
	if n := lab.Scheduler().Metrics().CacheMisses.Value() - misses; n != int64(len(variants)) {
		t.Errorf("%d result-cache misses for %d distinct geometry lists", n, len(variants))
	}
	if wants[0].I.Stats == wants[1].I.Stats {
		t.Error("direct-mapped and 2-way runs agree: the test geometry does not separate them")
	}
}

func TestPipelineRun(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	engines, err := lab.PipelineRun(b, isa.D16(), []pipeline.Config{
		{BusBytes: 4, WaitStates: 0},
		{BusBytes: 4, WaitStates: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if engines[1].Cycles() <= engines[0].Cycles() {
		t.Error("wait states must cost cycles")
	}
	m, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	// The engine and the formula agree exactly at zero wait states.
	if got, want := engines[0].Cycles(), m.Cycles(4, 0)+4; got != want {
		t.Errorf("engine %d, formula+drain %d", got, want)
	}
}

// TestPipelineRunKeyCoversRecordDepth checks that the pipeline-run
// result key hashes RecordDepth: a call asking for a flight recorder
// must not be served the engines of an earlier recorder-less call.
func TestPipelineRunKeyCoversRecordDepth(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("towers")
	misses := lab.Scheduler().Metrics().CacheMisses.Value()
	plain, err := lab.PipelineRun(b, isa.D16(), []pipeline.Config{{BusBytes: 4, WaitStates: 1}})
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := lab.PipelineRun(b, isa.D16(), []pipeline.Config{{BusBytes: 4, WaitStates: 1, RecordDepth: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if n := lab.Scheduler().Metrics().CacheMisses.Value() - misses; n != 2 {
		t.Errorf("%d result-cache misses for two configurations differing in RecordDepth, want 2", n)
	}
	if recorded[0].Recorder() == nil {
		t.Error("the RecordDepth 64 call returned an engine without a flight recorder")
	}
	if plain[0].Cycles() != recorded[0].Cycles() {
		t.Errorf("recording changed the cycles: %d without, %d with", plain[0].Cycles(), recorded[0].Cycles())
	}
}

func TestImmStatsClassification(t *testing.T) {
	var s ImmStats
	exec := func(in isa.Instr) { s.Exec(0x1000, in) }
	exec(isa.Instr{Op: isa.CMP, Cond: isa.LT, Rd: isa.R(3), Rs1: isa.R(4), Imm: 100, HasImm: true})
	exec(isa.Instr{Op: isa.CMP, Cond: isa.LT, Rd: isa.R(3), Rs1: isa.R(4), Imm: 1000, HasImm: true})
	exec(isa.Instr{Op: isa.ADDI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 7, HasImm: true})
	exec(isa.Instr{Op: isa.ADDI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 77, HasImm: true})
	exec(isa.Instr{Op: isa.ORI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 1, HasImm: true})
	exec(isa.Instr{Op: isa.LD, Rd: isa.R(3), Rs1: isa.R(2), Imm: 120})
	exec(isa.Instr{Op: isa.LD, Rd: isa.R(3), Rs1: isa.R(2), Imm: 128})
	exec(isa.Instr{Op: isa.LDB, Rd: isa.R(3), Rs1: isa.R(2), Imm: 1})
	exec(isa.Instr{Op: isa.MVI, Rd: isa.R(3), Imm: 300, HasImm: true})
	exec(isa.Instr{Op: isa.JL, Imm: 400, HasImm: true})

	if s.Total != 10 {
		t.Errorf("total %d", s.Total)
	}
	if s.CmpImm != 2 || s.CmpImm8 != 1 {
		t.Errorf("cmp counts %d/%d, want 2/1", s.CmpImm, s.CmpImm8)
	}
	if s.WideALU != 2 { // addi 77 (beyond 5 bits) and ori
		t.Errorf("wide ALU %d, want 2", s.WideALU)
	}
	if s.WideMem != 2 { // ld 128 and ldb with nonzero offset
		t.Errorf("wide mem %d, want 2", s.WideMem)
	}
	if s.WideMVI != 1 || s.FarCalls != 1 {
		t.Errorf("mvi/farcall %d/%d, want 1/1", s.WideMVI, s.FarCalls)
	}
}
