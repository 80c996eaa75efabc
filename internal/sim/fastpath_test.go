package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// forward hides a pipeline.Engine behind a plain Observer so Attach
// cannot recognize it and the run takes the generic dispatch path.
type forward struct{ e *pipeline.Engine }

func (f forward) Exec(pc uint32, op decode.Op) { f.e.Exec(pc, op) }
func (f forward) Load(addr, size uint32)       { f.e.Load(addr, size) }
func (f forward) Store(addr, size uint32)      { f.e.Store(addr, size) }

// TestFastPathMatchesGenericEngine: the devirtualized engine path and
// the generic Observer path produce identical timing — total cycles,
// every attribution bucket, and the full per-PC tables — across memory
// configurations and both encodings.
func TestFastPathMatchesGenericEngine(t *testing.T) {
	cfgs := []pipeline.Config{
		{BusBytes: 4, WaitStates: 0},
		{BusBytes: 4, WaitStates: 3, SharedPort: true},
		{BusBytes: 8, WaitStates: 1},
	}
	for _, spec := range bothSpecs() {
		img := assemble(t, loopProgram(spec), spec)
		for _, cfg := range cfgs {
			fast := pipeline.New(cfg)
			fast.EnablePCAccounting()
			mf, err := New(img)
			if err != nil {
				t.Fatal(err)
			}
			mf.Attach(fast)
			if mf.eng == nil {
				t.Fatal("single attached engine not devirtualized")
			}
			if err := mf.Run(1_000_000); err != nil {
				t.Fatal(err)
			}

			slow := pipeline.New(cfg)
			slow.EnablePCAccounting()
			ms, err := New(img)
			if err != nil {
				t.Fatal(err)
			}
			ms.Attach(forward{slow})
			if ms.eng != nil {
				t.Fatal("wrapped engine unexpectedly devirtualized")
			}
			if err := ms.Run(1_000_000); err != nil {
				t.Fatal(err)
			}

			if fast.Cycles() != slow.Cycles() {
				t.Errorf("%v %+v: cycles %d (fast) != %d (generic)", spec.Enc, cfg, fast.Cycles(), slow.Cycles())
			}
			if fast.Breakdown() != slow.Breakdown() {
				t.Errorf("%v %+v: breakdown %v != %v", spec.Enc, cfg, fast.Breakdown(), slow.Breakdown())
			}
			if !reflect.DeepEqual(fast.PerPC(), slow.PerPC()) {
				t.Errorf("%v %+v: per-PC tables differ", spec.Enc, cfg)
			}
			if mf.Stats != ms.Stats {
				t.Errorf("%v %+v: machine stats differ: %+v vs %+v", spec.Enc, cfg, mf.Stats, ms.Stats)
			}
		}
	}
}

// cacheForward hides a cache.System behind a plain Observer, like
// forward does for an engine.
type cacheForward struct{ s *cache.System }

func (f cacheForward) Exec(pc uint32, op decode.Op) { f.s.Exec(pc, op) }
func (f cacheForward) Load(addr, size uint32)       { f.s.Load(addr, size) }
func (f cacheForward) Store(addr, size uint32)      { f.s.Store(addr, size) }

// TestCacheFastPathMatchesGeneric: cache systems that Attach recognizes
// and calls directly see the same accesses as ones behind the observer
// interface, next to an engine and on both encodings.
func TestCacheFastPathMatchesGeneric(t *testing.T) {
	cfgs := []cache.Config{cache.PaperConfig(1024), cache.PaperConfigSub(2048, 16)}
	for _, spec := range bothSpecs() {
		img := assemble(t, loopProgram(spec), spec)
		var fast, slow []*cache.System
		mf, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			f, err := cache.NewSystem(cfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, _ := cache.NewSystem(cfg, cfg)
			fast, slow = append(fast, f), append(slow, s)
			mf.Attach(f)
			ms.Attach(cacheForward{s})
		}
		mf.Attach(pipeline.New(pipeline.Config{BusBytes: 4}))
		if len(mf.caches) != len(cfgs) || len(ms.caches) != 0 {
			t.Fatalf("%v: %d direct cache systems, %d behind the interface", spec.Enc, len(mf.caches), len(ms.caches))
		}
		if err := mf.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if err := ms.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if fast[i].I.Stats != slow[i].I.Stats || fast[i].D.Stats != slow[i].D.Stats {
				t.Errorf("%v %+v: direct I %+v D %+v, generic I %+v D %+v", spec.Enc, cfgs[i],
					fast[i].I.Stats, fast[i].D.Stats, slow[i].I.Stats, slow[i].D.Stats)
			}
		}
	}
}

// TestResumedRunAddsUp: a run stopped at its instruction budget and
// resumed ends with the same Stats as an uninterrupted run, Table 4
// class counts included. On DLXe every loop trip's store and load
// carries a displacement beyond D16's reach, so the class counts are
// not trivially zero.
func TestResumedRunAddsUp(t *testing.T) {
	for _, spec := range bothSpecs() {
		src := loopProgram(spec)
		if spec.Enc == isa.EncDLXe {
			src = strings.ReplaceAll(src, "0(gp)", "128(gp)")
		}
		img := assemble(t, src, spec)
		whole, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := whole.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		resumed, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Run(100); err == nil {
			t.Fatal("a 100-instruction budget should not finish the loop")
		}
		if err := resumed.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if resumed.Stats != whole.Stats {
			t.Errorf("%v: resumed run %+v, uninterrupted %+v", spec.Enc, resumed.Stats, whole.Stats)
		}
		if spec.Enc == isa.EncDLXe && whole.Stats.Imm[isa.ImmWideMem] != 400 {
			t.Errorf("DLXe: %d wide-displacement executions, want 400 (200 trips of st+ld)", whole.Stats.Imm[isa.ImmWideMem])
		}
	}
}
