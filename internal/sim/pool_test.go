package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

// loopProgram runs a short store/load/branch loop: enough dynamic
// instructions to exercise the scoreboard, memory dirtying and the
// observer paths, short enough for alloc-counting runs.
const loopBody = `
	.text
	.global _start
_start:
	mvi r4, 200
	mvi r6, 0
.Lloop:
	st r4, 0(gp)
	ld r5, 0(gp)
	add r6, r6, r5
	subi r4, r4, 1
	mv CC, r4
	bnz CC, .Lloop
	nop
PRINT	trap 0
	nop
	.pool
	.data
acc:	.word 0
`

// loopProgram prints its checksum (exercising Output across resets);
// quietLoopProgram is the print-free variant for allocation counting
// (formatting the checksum boxes an int — a legitimate one-off cost
// outside the hot loop).
func loopProgram(spec *isa.Spec) string {
	return strings.Replace(prep(loopBody, spec), "PRINT", "mv r3, r6\n\ttrap 1\n", 1)
}

func quietLoopProgram(spec *isa.Spec) string {
	return strings.Replace(prep(loopBody, spec), "PRINT", "", 1)
}

func assemble(t *testing.T, src string, spec *isa.Spec) *prog.Image {
	t.Helper()
	img, err := asm.Assemble("p.s", src, spec)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// stateDiff compares the complete architectural and bookkeeping state of
// two machines; "" means indistinguishable.
func stateDiff(a, b *Machine) string {
	switch {
	case !bytes.Equal(a.Mem, b.Mem):
		for i := range a.Mem {
			if a.Mem[i] != b.Mem[i] {
				return fmt.Sprintf("Mem[%#x]: %#x vs %#x", i, a.Mem[i], b.Mem[i])
			}
		}
	case a.GPR != b.GPR:
		return fmt.Sprintf("GPR: %v vs %v", a.GPR, b.GPR)
	case a.FPR != b.FPR:
		return fmt.Sprintf("FPR: %v vs %v", a.FPR, b.FPR)
	case a.FPSR != b.FPSR, a.PC != b.PC, a.Enc != b.Enc, a.r0Zero != b.r0Zero, a.halted != b.halted:
		return fmt.Sprintf("control state: PC %#x/%#x halted %v/%v", a.PC, b.PC, a.halted, b.halted)
	case a.Stats != b.Stats:
		return fmt.Sprintf("Stats: %+v vs %+v", a.Stats, b.Stats)
	case a.Output.String() != b.Output.String():
		return fmt.Sprintf("Output: %q vs %q", a.Output.String(), b.Output.String())
	case a.dec != b.dec:
		return "decode tables differ"
	case a.t != b.t, a.ready != b.ready, a.fpsrReady != b.fpsrReady, a.lastPC != b.lastPC:
		return "scoreboard state differs"
	}
	return ""
}

// TestPooledResetMatchesFresh: a machine that ran one program and was
// reset onto another is byte-for-byte identical to a freshly constructed
// machine — before the run and after it.
func TestPooledResetMatchesFresh(t *testing.T) {
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		img := assemble(t, loopProgram(spec), spec)
		dirty := assemble(t, quietLoopProgram(spec), spec)

		used, err := New(dirty)
		if err != nil {
			t.Fatal(err)
		}
		if err := used.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if err := used.Reset(img); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		if d := stateDiff(used, fresh); d != "" {
			t.Fatalf("%v: reset state differs from fresh: %s", spec.Enc, d)
		}
		if err := used.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if d := stateDiff(used, fresh); d != "" {
			t.Fatalf("%v: post-run state differs: %s", spec.Enc, d)
		}
	}
}

// TestAcquireReleaseRoundTrip: Acquire after Release reuses the machine
// (same memory) and still matches a fresh construction.
func TestAcquireReleaseRoundTrip(t *testing.T) {
	img := assemble(t, loopProgram(isa.D16()), isa.D16())
	m, err := Acquire(img)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(pipeline.New(pipeline.Config{BusBytes: 4}))
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	mem := &m.Mem[0]
	Release(m)

	got, err := Acquire(img)
	if err != nil {
		t.Fatal(err)
	}
	defer Release(got)
	if &got.Mem[0] != mem {
		// Another goroutine's GC may legitimately have dropped the pooled
		// machine; the state check below is the real contract.
		t.Log("pool did not return the released machine (GC'd); checking state only")
	}
	if len(got.obs) != 0 || got.eng != nil {
		t.Fatal("acquired machine retains previous observers")
	}
	fresh, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateDiff(got, fresh); d != "" {
		t.Fatalf("acquired state differs from fresh: %s", d)
	}
}

// TestRunDoesNotAllocate: the hot loop — fetch, scoreboard, exec, the
// loop's own counters, and the devirtualized engine and cache
// notifications — performs zero steady-state allocations per run, bare
// (as a measurement runs it) or observed.
func TestRunDoesNotAllocate(t *testing.T) {
	img := assemble(t, quietLoopProgram(isa.D16()), isa.D16())
	eng := pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1})
	sys, err := cache.NewSystem(cache.PaperConfig(1024), cache.PaperConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		setup func(*Machine)
	}{
		{"engine", func(m *Machine) { m.Attach(eng) }},
		{"cache", func(m *Machine) { m.Attach(sys) }},
		{"bare", func(*Machine) {}},
	} {
		m, err := New(img)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: the first run grows the Output buffer and the
		// observer slices once.
		tc.setup(m)
		if err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Reset(img); err != nil {
				t.Fatal(err)
			}
			tc.setup(m)
			if err := m.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: Run allocates %.1f times per run, want 0", tc.name, allocs)
		}
	}
}
