package bench

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/sim"
)

func runBench(t *testing.T, b *Benchmark, spec *isa.Spec) (*sim.Machine, *mcc.Compiled) {
	t.Helper()
	c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", b.Name, spec, err)
	}
	m, err := sim.New(c.Image)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(b.MaxInstrs); err != nil {
		t.Fatalf("%s/%s: run: %v", b.Name, spec, err)
	}
	return m, c
}

// TestSuiteCorrectness compiles and runs every benchmark on both base
// encodings and requires identical non-empty output (and the recorded
// expected output where present).
func TestSuiteCorrectness(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			m16, c16 := runBench(t, b, isa.D16())
			m32, c32 := runBench(t, b, isa.DLXe())
			out16, out32 := m16.Output.String(), m32.Output.String()
			if out16 == "" {
				t.Fatalf("%s produced no output", b.Name)
			}
			if out16 != out32 {
				t.Fatalf("%s: D16 output %q != DLXe output %q", b.Name, out16, out32)
			}
			if b.Expect != "" && out16 != b.Expect {
				t.Errorf("%s: output %q, want %q", b.Name, out16, b.Expect)
			}
			t.Logf("%s: out=%q pathD16=%d pathDLXe=%d sizeD16=%d sizeDLXe=%d",
				b.Name, out16, m16.Stats.Instrs, m32.Stats.Instrs,
				c16.Image.Size(), c32.Image.Size())
		})
	}
}

// TestSuiteShape checks the paper's headline static result per program:
// D16 binaries are smaller, and the size ratio is between 1 and 2.
func TestSuiteShape(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			_, c16 := runBench(t, b, isa.D16())
			_, c32 := runBench(t, b, isa.DLXe())
			r := float64(c32.Image.Size()) / float64(c16.Image.Size())
			if r <= 1.0 || r >= 2.0 {
				t.Errorf("%s: density ratio %.2f outside (1, 2): D16=%d DLXe=%d",
					b.Name, r, c16.Image.Size(), c32.Image.Size())
			}
		})
	}
}

// TestSuiteAllConfigurations runs every benchmark under every compiler
// configuration (the paper's five plus D16+) and requires identical
// output everywhere — the strongest whole-stack integration check.
func TestSuiteAllConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("full configuration sweep is slow")
	}
	configs := append(isa.PaperConfigs(), isa.D16Plus())
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, spec := range configs {
				m, _ := runBench(t, b, spec)
				got := m.Output.String()
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s on %s: %q differs from %q", b.Name, spec, got, want)
				}
			}
		})
	}
}

// TestCacheBenchmarksAreLarge ensures the cache-study programs have
// instruction working sets that can exercise 1-16K caches: assem sits in
// the paper's 4-8K regime ("4K is sufficient to capture the D16 working
// set, but 8K is required for DLXe"); latex and ipl overflow 16K.
func TestCacheBenchmarksAreLarge(t *testing.T) {
	min := map[string]int{"assem": 4 * 1024, "ipl": 16 * 1024, "latex": 16 * 1024}
	for _, b := range CacheBenchmarks() {
		c, err := mcc.Compile(b.Name+".mc", b.Source, isa.DLXe())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(c.Image.Text) < min[b.Name] {
			t.Errorf("%s: DLXe text is only %d bytes; cache experiments need >%d",
				b.Name, len(c.Image.Text), min[b.Name])
		}
	}
}

// TestSuiteBuiltOnce pins the shared-suite contract: lookups return the
// same *Benchmark every time, while each All() slice is the caller's
// own, so reordering one does not leak into the next call.
func TestSuiteBuiltOnce(t *testing.T) {
	if a, b := ByName("latex"), ByName("latex"); a == nil || a != b {
		t.Fatalf("ByName(latex) returned %p then %p, want one shared pointer", a, b)
	}
	first := All()
	want := first[0].Name
	first[0], first[len(first)-1] = first[len(first)-1], first[0]
	if got := All()[0].Name; got != want {
		t.Errorf("after reordering one All() slice the next starts with %s, want %s", got, want)
	}
}
