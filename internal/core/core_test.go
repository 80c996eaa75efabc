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
	_, err1 := lab.Measure(bad, isa.D16())
	if err1 == nil {
		t.Fatal("expected an output-mismatch error")
	}
	// A failure is not cached: the second call runs again and fails
	// the same way.
	if _, err2 := lab.Measure(bad, isa.D16()); err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second Measure error %v, first %v", err2, err1)
	}
}

// TestMeasurementsListsTheResultCache checks that Lab.Measurements,
// which reads the scheduler's result cache, returns exactly the
// measured points, sorted by benchmark then configuration: cache-sweep
// and pipeline results are not measurements, and a failed measure is
// neither listed nor remembered.
func TestMeasurementsListsTheResultCache(t *testing.T) {
	lab := NewLab()
	ack, queens := bench.ByName("ackermann"), bench.ByName("queens")
	want := map[*Measurement]bool{}
	for _, p := range []struct {
		b    *bench.Benchmark
		spec *isa.Spec
	}{{queens, isa.DLXe()}, {ack, isa.DLXe()}, {ack, isa.D16()}} {
		m, err := lab.Measure(p.b, p.spec)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = true
	}
	if _, err := lab.CacheSweep(ack, isa.D16(), []cache.Config{cache.PaperConfig(1024)}); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.PipelineRun(ack, isa.D16(), []pipeline.Config{{BusBytes: 4}}); err != nil {
		t.Fatal(err)
	}
	budget := *ack
	budget.MaxInstrs = 1000
	_, err1 := lab.Measure(&budget, isa.D16())
	if err1 == nil {
		t.Fatal("a 1000-instruction budget did not fail ackermann")
	}
	if _, err2 := lab.Measure(&budget, isa.D16()); err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("second failing Measure error %v, first %v", err2, err1)
	}
	if n := lab.Scheduler().Metrics().Failed.Value(); n != 2 {
		t.Errorf("%d failed jobs, want 2: the failure must run again, not be served from a table", n)
	}

	got := lab.Measurements()
	if len(got) != len(want) {
		t.Fatalf("%d measurements, want %d", len(got), len(want))
	}
	for i, m := range got {
		if !want[m] {
			t.Errorf("measurement %d (%s on %s) is not one Measure returned", i, m.Bench, m.Spec.Name)
		}
		if i > 0 {
			prev := got[i-1]
			if prev.Bench > m.Bench || prev.Bench == m.Bench && prev.Spec.Name >= m.Spec.Name {
				t.Errorf("measurements %d and %d out of order: %s/%s, %s/%s",
					i-1, i, prev.Bench, prev.Spec.Name, m.Bench, m.Spec.Name)
			}
		}
	}
	if n := lab.Scheduler().Cache().Len(); n != len(want)+2 {
		t.Errorf("result cache holds %d entries, want %d measurements + 2 runs", n, len(want))
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
