package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func TestParseGrammar(t *testing.T) {
	s, err := Parse("classes=loopy,fp count=3 seed=9 isa=d16,dlxe bus=2,4 waits=0-2 cachekb=0,4 misspenalty=6,8")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.Classes, ","); got != "loopy,fp" {
		t.Errorf("classes = %q", got)
	}
	if s.Count != 3 || s.Seed != 9 {
		t.Errorf("count/seed = %d/%d", s.Count, s.Seed)
	}
	if len(s.Configs) != 2 || len(s.Bus) != 2 {
		t.Errorf("configs/bus = %d/%d", len(s.Configs), len(s.Bus))
	}
	if got := joinI64(s.Waits); got != "0,1,2" {
		t.Errorf("waits = %s", got)
	}
	if got := joinI64(s.CacheKB); got != "0,4" {
		t.Errorf("cachekb = %s", got)
	}
	// 1 cached size x 2 buses x 2 penalties.
	if got := len(s.CachedCells()); got != 4 {
		t.Errorf("cached cells = %d", got)
	}
	if s.Programs() != 6 {
		t.Errorf("programs = %d", s.Programs())
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"classes=nosuch",
		"count=0",
		"bus=3",
		"waits=5-2",
		"cachekb=3",
		"misspenalty=0",
		"frobnicate=1",
		"count",
		"isa=z80",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseEmptyIsDefaults(t *testing.T) {
	s, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults()
	if s.String() != d.String() {
		t.Errorf("Parse(\"\") = %s, want %s", s, d)
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	s, err := Parse("classes=array count=2 seed=3 cachekb=0,1")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s, err)
	}
	if back.String() != s.String() {
		t.Errorf("round trip %q -> %q", s, back)
	}
}

// A small sweep end to end: all programs pass, the store holds the full
// grid, the invariants hold, and a parallel lab reproduces the bytes.
func TestRunSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run in -short")
	}
	dir := t.TempDir()
	spec, err := Parse("classes=loopy,callheavy count=2 seed=7 waits=0-2 cachekb=0,1")
	if err != nil {
		t.Fatal(err)
	}

	run := func(lab *core.Lab, name string) ([]byte, *Summary) {
		var log bytes.Buffer
		path := filepath.Join(dir, name)
		r := &Runner{Lab: lab, Log: &log}
		sum, err := r.Run(spec, path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return append(log.Bytes(), data...), sum
	}

	seq, sum := run(core.NewLab(), "seq.mcst")
	if len(sum.Failures) != 0 {
		t.Fatalf("failures: %+v", sum.Failures)
	}
	if sum.Passed != 4 {
		t.Fatalf("passed = %d, want 4", sum.Passed)
	}
	// 4 programs x 2 configs x (2 bus x 3 waits cacheless + 2 bus x 1
	// penalty x 1 cached size).
	if want := 4 * 2 * (2*3 + 2); sum.Points != want {
		t.Fatalf("points = %d, want %d", sum.Points, want)
	}

	par, _ := run(core.NewParallelLab(8), "par.mcst")
	if !bytes.Equal(seq, par) {
		t.Fatal("sequential and parallel sweeps are not byte-identical")
	}

	pts, err := store.ReadFile(filepath.Join(dir, "seq.mcst"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != sum.Points {
		t.Fatalf("store holds %d points, summary says %d", len(pts), sum.Points)
	}
	for i := range pts {
		if err := pts[i].Validate(); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
}

// Every class on a 2-worker lab, whose workers compile concurrently,
// and on an inline lab: the logs and surfaces must be byte-identical,
// and afterwards neither lab holds a result or a compile of the corpus.
func TestRunSweepParallelReleases(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run in -short")
	}
	dir := t.TempDir()
	spec, err := Parse("classes=loopy,callheavy,recursive,fp,array,phased count=3")
	if err != nil {
		t.Fatal(err)
	}
	par := core.NewParallelLab(2)
	defer par.Scheduler().Shutdown(context.Background())
	labs := map[string]*core.Lab{"seq": core.NewLab(), "par": par}
	out := map[string][]byte{}
	for _, name := range []string{"seq", "par"} {
		lab := labs[name]
		var log bytes.Buffer
		path := filepath.Join(dir, name+".mcst")
		sum, err := (&Runner{Lab: lab, Log: &log}).Run(spec, path)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Passed != spec.Programs() {
			t.Fatalf("%s: %d of %d programs passed: %+v", name, sum.Passed, spec.Programs(), sum.Failures)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = append(log.Bytes(), data...)
		if n := lab.Scheduler().Cache().Len(); n != 0 {
			t.Errorf("%s: result cache holds %d entries after the sweep, want 0", name, n)
		}
		// A compile the memo still held would record no compile span.
		tr := telemetry.NewTracer()
		telemetry.SetGlobalTracer(tr)
		for _, class := range spec.Classes {
			for i := 0; i < spec.Count; i++ {
				p, err := synth.Generate(class, spec.ProgramSeed(class, i))
				if err != nil {
					t.Fatal(err)
				}
				b := &bench.Benchmark{Name: p.Name, Source: p.Source}
				for _, cfg := range spec.Configs {
					if _, err := lab.Compile(b, cfg); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		telemetry.SetGlobalTracer(nil)
		compiles := 0
		for _, e := range tr.Events() {
			if e.Name == "compile" {
				compiles++
			}
		}
		if want := spec.Programs() * len(spec.Configs); compiles != want {
			t.Errorf("%s: %d of %d corpus compiles ran after the sweep; the rest were still memoized",
				name, compiles, want)
		}
	}
	if !bytes.Equal(out["seq"], out["par"]) {
		t.Fatal("sequential and parallel sweeps are not byte-identical")
	}
}

// A sweep whose corpus cannot compile must report the failure with a
// repro line and persist a minimized artifact, and still exit cleanly.
func TestRunSweepFailureArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run in -short")
	}
	dir := t.TempDir()
	spec, err := Parse("classes=fp count=1 seed=3 waits=0 bus=4")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: restrict the budget so every run dies mid-flight. This
	// exercises the same failure path a real miscompile would take.
	spec.MaxInstrs = 100

	var log bytes.Buffer
	r := &Runner{Lab: core.NewLab(), FailDir: filepath.Join(dir, "fails"), Log: &log}
	sum, err := r.Run(spec, filepath.Join(dir, "points.mcst"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Passed != 0 || len(sum.Failures) != 1 {
		t.Fatalf("passed=%d failures=%d, want 0/1", sum.Passed, len(sum.Failures))
	}
	f := sum.Failures[0]
	if !strings.Contains(f.Repro, "progseed=") || !strings.Contains(f.Repro, "classes=fp") {
		t.Errorf("repro line %q lacks seed/class", f.Repro)
	}
	if !strings.Contains(log.String(), "repro -sweep") {
		t.Errorf("log lacks the one-line repro:\n%s", log.String())
	}
	if f.Path == "" {
		t.Fatal("no artifact persisted")
	}
	src, err := os.ReadFile(f.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "int main()") {
		t.Error("artifact does not contain MC source")
	}
}
