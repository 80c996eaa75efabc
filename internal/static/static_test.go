package static_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/synth"
	"repro/internal/verify"
)

func assemble(t *testing.T, src string, spec *isa.Spec) *prog.Image {
	t.Helper()
	img, err := asm.Assemble("test.s", src, spec)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func analyze(t *testing.T, src string, spec *isa.Spec) *static.Report {
	t.Helper()
	rep, err := static.Analyze(assemble(t, src, spec), spec)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

// runCycles executes img once with engines for every grid cell attached
// and returns cycles per (bus, waits).
func runCycles(t *testing.T, img *prog.Image, maxInstrs int64) map[[2]int64]int64 {
	t.Helper()
	m, err := sim.New(img)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	type cell struct {
		bus uint32
		w   int64
		e   *pipeline.Engine
	}
	var cells []cell
	for _, bus := range static.GridBuses {
		for w := int64(0); w < static.GridWaits; w++ {
			e := pipeline.New(pipeline.Config{BusBytes: bus, WaitStates: w})
			m.Attach(e)
			cells = append(cells, cell{bus, w, e})
		}
	}
	if err := m.Run(maxInstrs); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := map[[2]int64]int64{}
	for _, c := range cells {
		out[[2]int64{int64(c.bus), c.w}] = c.e.Cycles()
	}
	return out
}

// checkContainment asserts every dynamic cycle count lies inside the
// static interval of its grid cell.
func checkContainment(t *testing.T, name string, rep *static.Report, cycles map[[2]int64]int64) {
	t.Helper()
	for k, cyc := range cycles {
		row, ok := rep.BoundAt(uint32(k[0]), k[1])
		if !ok {
			t.Fatalf("%s: no bound row for bus=%d w=%d", name, k[0], k[1])
		}
		if cyc < row.MinCycles {
			t.Errorf("%s bus=%d w=%d: cycles %d below static min %d",
				name, k[0], k[1], cyc, row.MinCycles)
		}
		if row.MaxCycles >= 0 && cyc > row.MaxCycles {
			t.Errorf("%s bus=%d w=%d: cycles %d above static max %d",
				name, k[0], k[1], cyc, row.MaxCycles)
		}
	}
}

// A straight-line integer program has a unique path, so min, max and
// the measured run must all agree exactly.
func TestStraightLineExact(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	mvi r4, 5
	add r5, r4, r4
	sub r6, r5, r4
	trap 0
`
	spec := isa.DLXe()
	img := assemble(t, src, spec)
	rep, err := static.Analyze(img, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image.MinInstrs != 4 {
		t.Errorf("MinInstrs = %d, want 4", rep.Image.MinInstrs)
	}
	cycles := runCycles(t, img, 1000)
	for k, cyc := range cycles {
		row, _ := rep.BoundAt(uint32(k[0]), k[1])
		if row.MinCycles != cyc || row.MaxCycles != cyc {
			t.Errorf("bus=%d w=%d: static [%d, %d], dynamic %d (want exact)",
				k[0], k[1], row.MinCycles, row.MaxCycles, cyc)
		}
	}
}

// A counted loop with a constant trip count: the bound recognizer must
// find the exact count, and with zero wait states the upper bound is
// exact (the loop body has no stalls).
func TestCountedLoopBound(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	mvi r4, 3
.loop:
	subi r4, r4, 1
	bnz r4, .loop
	nop
	trap 0
`
	spec := isa.DLXe()
	img := assemble(t, src, spec)
	rep, err := static.Analyze(img, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image.Loops != 1 || rep.Image.BoundedLoops != 1 {
		t.Fatalf("loops=%d bounded=%d, want 1/1 (diags: %v)",
			rep.Image.Loops, rep.Image.BoundedLoops, rep.Diags)
	}
	ls := rep.Funcs[0].LoopStats
	if len(ls) != 1 || ls[0].Bound != 3 || ls[0].Depth != 1 {
		t.Fatalf("loop stats = %+v, want one loop bound=3 depth=1", ls)
	}
	cycles := runCycles(t, img, 1000)
	// mvi + 3x(subi,bnz,nop) + trap = 11 issues; +drain = 15 at w=0.
	if got := cycles[[2]int64{4, 0}]; got != 15 {
		t.Fatalf("dynamic cycles at bus=4 w=0 = %d, want 15", got)
	}
	row, _ := rep.BoundAt(4, 0)
	if row.MaxCycles != 15 {
		t.Errorf("static max at bus=4 w=0 = %d, want exactly 15", row.MaxCycles)
	}
	checkContainment(t, "counted-loop", rep, cycles)
}

// The delay-slot decrement variant: bnz tests the pre-decrement value,
// so an initial value of N runs the header N+1 times.
func TestSlotDecrementBound(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	mvi r4, 3
	mvi r5, 0
.loop:
	add r5, r5, r4
	bnz r4, .loop
	subi r4, r4, 1
	trap 0
`
	rep := analyze(t, src, isa.DLXe())
	ls := rep.Funcs[0].LoopStats
	if len(ls) != 1 || ls[0].Bound != 4 {
		t.Fatalf("loop stats = %+v, want one loop bound=4 (N+1 for slot decrement)", ls)
	}
}

// A loop whose counter comes from a register argument has no inferable
// bound: the analysis must go to ⊤ with an unbounded-loop diagnostic,
// never reject the image.
func TestUnboundedLoopTop(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	mvi r4, 7
	shl r4, r4, r4
.loop:
	subi r4, r4, 1
	bnz r4, .loop
	nop
	trap 0
`
	rep := analyze(t, src, isa.DLXe())
	if rep.Image.Loops != 1 || rep.Image.BoundedLoops != 0 {
		t.Fatalf("loops=%d bounded=%d, want 1/0", rep.Image.Loops, rep.Image.BoundedLoops)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Kind == static.DiagUnboundedLoop {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s diagnostic; diags: %v", static.DiagUnboundedLoop, rep.Diags)
	}
	for _, b := range rep.Bounds {
		if b.MaxCycles != -1 {
			t.Errorf("bus=%d w=%d: max = %d, want -1 (unbounded)", b.BusBytes, b.WaitStates, b.MaxCycles)
		}
		if b.MinCycles <= 0 {
			t.Errorf("bus=%d w=%d: min = %d, want > 0", b.BusBytes, b.WaitStates, b.MinCycles)
		}
	}
}

// The static fetch table is pure layout arithmetic: for the 2-byte bus
// every D16 instruction is one word; DLXe needs two.
func TestFetchTraffic(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	mvi r4, 5
	mvi r5, 6
	trap 0
`
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		rep := analyze(t, src, spec)
		want := rep.Image.Instrs * int64(spec.InstrBytes()) / 2
		got := rep.Image.FetchWords[0]
		if got.BusBytes != 2 || got.Words != want {
			t.Errorf("%s: bus=2 words = %d, want %d", spec.Name, got.Words, want)
		}
	}
}

// TestContainment is the standing cross-check over the full seed bench
// suite: for all 15 benchmarks x 6 ISA configs x 8 memory-grid cells,
// the measured pipeline cycles lie within the static interval.
func TestContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench suite run")
	}
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, b := range bench.All() {
				c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
				if err != nil {
					t.Fatalf("%s: compile: %v", b.Name, err)
				}
				rep, err := static.Analyze(c.Image, spec)
				if err != nil {
					t.Fatalf("%s: analyze: %v", b.Name, err)
				}
				cycles := runCycles(t, c.Image, b.MaxInstrs)
				checkContainment(t, b.Name, rep, cycles)
			}
		})
	}
}

// TestContainmentSynth extends the cross-check to fixed seeds of every
// synthetic workload class.
func TestContainmentSynth(t *testing.T) {
	if testing.Short() {
		t.Skip("synth corpus run")
	}
	specs := []*isa.Spec{isa.D16(), isa.DLXe()}
	for _, class := range synth.Classes() {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint32{1, 0xfeed} {
				p, err := synth.Generate(class, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range specs {
					c, err := mcc.Compile(p.Name+".mc", p.Source, spec)
					if err != nil {
						t.Fatalf("%s on %s: compile: %v", p.Name, spec.Name, err)
					}
					rep, err := static.Analyze(c.Image, spec)
					if err != nil {
						t.Fatalf("%s on %s: analyze: %v", p.Name, spec.Name, err)
					}
					cycles := runCycles(t, c.Image, p.MaxInstrs)
					checkContainment(t, p.Name+"/"+spec.Name, rep, cycles)
				}
			}
		})
	}
}

// TestCompiledStaticMatchesAnalyze: the summary mcc.Compile derives from
// its verify gate's CFG is exactly what analyzing the bare image yields,
// for every seed benchmark and configuration and a few synth programs
// per class.
func TestCompiledStaticMatchesAnalyze(t *testing.T) {
	check := func(name, src string, spec *isa.Spec) {
		t.Helper()
		c, err := mcc.Compile(name+".mc", src, spec)
		if err != nil {
			t.Fatalf("%s on %s: compile: %v", name, spec.Name, err)
		}
		rep, err := static.Analyze(c.Image, spec)
		if err != nil {
			t.Fatalf("%s on %s: analyze: %v", name, spec.Name, err)
		}
		if !reflect.DeepEqual(c.Static, rep.Image) {
			t.Errorf("%s on %s: Compiled.Static = %+v, Analyze = %+v", name, spec.Name, c.Static, rep.Image)
		}
		if got := static.AnalyzeCFG(c.Image, spec, verify.Image(c.Image, spec).CFG()); !reflect.DeepEqual(got, rep) {
			t.Errorf("%s on %s: AnalyzeCFG of the verified CFG differs from Analyze", name, spec.Name)
		}
	}
	for _, spec := range allSpecs() {
		for _, b := range bench.All() {
			check(b.Name, b.Source, spec)
		}
	}
	for _, class := range synth.Classes() {
		for _, seed := range []uint32{1, 2, 3} {
			p, err := synth.Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
				check(p.Name, p.Source, spec)
			}
		}
	}
}

// TestDensityRatio reproduces the paper's headline static result with
// zero simulation: D16 binaries are ~1.5-1.6x denser than DLXe.
func TestDensityRatio(t *testing.T) {
	d16, dlxe := isa.D16(), isa.DLXe()
	logSum, n := 0.0, 0
	for _, b := range bench.All() {
		c16, err := mcc.Compile(b.Name+".mc", b.Source, d16)
		if err != nil {
			t.Fatal(err)
		}
		c32, err := mcc.Compile(b.Name+".mc", b.Source, dlxe)
		if err != nil {
			t.Fatal(err)
		}
		r16, err := static.Analyze(c16.Image, d16)
		if err != nil {
			t.Fatal(err)
		}
		r32, err := static.Analyze(c32.Image, dlxe)
		if err != nil {
			t.Fatal(err)
		}
		// Text-only, like the repo's fig4: our scaled benchmarks embed
		// input data that is identical across configs and would dilute
		// the binary ratio.
		ratio := float64(r32.Image.TextBytes) / float64(r16.Image.TextBytes)
		logSum += math.Log(ratio)
		n++
	}
	geo := math.Exp(logSum / float64(n))
	if geo < 1.4 || geo > 1.7 {
		t.Errorf("geomean DLXe/D16 text ratio = %.3f, want ~1.5-1.6 (paper)", geo)
	}
}

// TestDeterministic asserts byte-identical analysis output across runs.
func TestDeterministic(t *testing.T) {
	spec := isa.D16()
	b := bench.ByName("queens")
	c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	for i := 0; i < 3; i++ {
		rep, err := static.Analyze(c.Image, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.WriteTable(&buf)
		if i == 0 {
			first = buf
		} else if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("run %d table differs from run 0", i)
		}
	}
	if first.Len() == 0 {
		t.Fatal("empty table")
	}
}

// FuzzContainment drives the containment property from generated
// programs: any (class, seed) that compiles must satisfy the interval.
func FuzzContainment(f *testing.F) {
	classes := synth.Classes()
	for i := range classes {
		f.Add(uint64(42+i*31), byte('0'+i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, classSel byte) {
		class := classes[int(classSel)%len(classes)]
		p, err := synth.Generate(class, uint32(seed)^uint32(seed>>32))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
			c, err := mcc.Compile(p.Name+".mc", p.Source, spec)
			if err != nil {
				t.Fatalf("%s on %s: compile: %v", p.Name, spec.Name, err)
			}
			rep, err := static.Analyze(c.Image, spec)
			if err != nil {
				t.Fatalf("%s on %s: analyze: %v", p.Name, spec.Name, err)
			}
			cycles := runFuzzCycles(t, c.Image, p.MaxInstrs)
			checkContainment(t, fmt.Sprintf("%s/%s", p.Name, spec.Name), rep, cycles)
		}
	})
}

func runFuzzCycles(t *testing.T, img *prog.Image, maxInstrs int64) map[[2]int64]int64 {
	return runCycles(t, img, maxInstrs)
}

func allSpecs() []*isa.Spec {
	return append(isa.PaperConfigs(), isa.D16Plus())
}
