package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/verify"
)

// shortBranchD16 is D16 with a branch reach too short for the runtime
// library's branches, so every compile for it fails the verify gate.
func shortBranchD16() *isa.Spec {
	s := *isa.D16()
	s.Name, s.BranchRangeIns = "D16/short-branch", 8
	return &s
}

// TestRunKeyIsSource checks the run's content key: two benchmarks equal
// in name, budget and source text share one result-cache entry, even
// when their sources are distinct strings; a cache hit looks up no
// compile; and a changed source is a distinct run.
func TestRunKeyIsSource(t *testing.T) {
	lab := NewLab()
	a := *bench.ByName("queens")
	b := a
	b.Source = strings.Clone(a.Source)
	spec := isa.D16()
	m1, err := lab.Measure(&a, spec)
	if err != nil {
		t.Fatal(err)
	}
	lab.Forget(&a, []*isa.Spec{spec}) // the compile only: no tickets
	m2, err := lab.Measure(&b, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("an equal benchmark was not served the cached measurement")
	}
	if n := len(lab.comp); n != 0 {
		t.Errorf("a cache hit left %d compiles in the memo, want none", n)
	}
	c := b
	c.Source += "\n/* same program, another source */\n"
	m3, err := lab.Measure(&c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("a changed source was served the old measurement")
	}
	if n := lab.Scheduler().Cache().Len(); n != 2 {
		t.Errorf("result cache holds %d entries for two sources, want 2", n)
	}
}

// TestCompileErrorComesFromWait checks that a run whose compile fails
// is still submitted, and that its ticket's Wait returns exactly the
// error Lab.Compile returns, unwrapped: a syntax error, and a verify
// rejection that stays a *verify.Error.
func TestCompileErrorComesFromWait(t *testing.T) {
	lab := NewParallelLab(2)
	defer lab.Scheduler().Shutdown(context.Background())
	ctx := context.Background()
	for _, c := range []struct {
		b      *bench.Benchmark
		spec   *isa.Spec
		verify bool
	}{
		{&bench.Benchmark{Name: "syntax", Source: "int main( {", MaxInstrs: 1000}, isa.D16(), false},
		{bench.ByName("queens"), shortBranchD16(), true},
	} {
		tk, err := lab.MeasureTicket(ctx, c.b, c.spec)
		if err != nil {
			t.Fatalf("%s on %s: submit: %v", c.b.Name, c.spec.Name, err)
		}
		_, got := tk.Wait(ctx)
		_, want := lab.Compile(c.b, c.spec)
		if want == nil || got != want {
			t.Errorf("%s on %s: Wait returned %v, Compile %v", c.b.Name, c.spec.Name, got, want)
		}
		var verr *verify.Error
		if errors.As(got, &verr) != c.verify {
			t.Errorf("%s on %s: error %v is a *verify.Error: %v, want %v",
				c.b.Name, c.spec.Name, got, !c.verify, c.verify)
		}
	}
}

// TestForgetReleasesProgram checks that Forget drops a program's
// compiles and the results of its tickets, whatever their kind.
func TestForgetReleasesProgram(t *testing.T) {
	lab := NewLab()
	ctx := context.Background()
	b := bench.ByName("towers")
	specs := []*isa.Spec{isa.D16(), isa.DLXe()}
	var done []*jobs.Ticket
	for _, spec := range specs {
		tm, err := lab.MeasureTicket(ctx, b, spec)
		if err != nil {
			t.Fatal(err)
		}
		ta, err := lab.AccountTicket(ctx, b, spec, []AccountConfig{{BusBytes: 4, WaitStates: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range []*jobs.Ticket{tm, ta} {
			if _, err := tk.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			done = append(done, tk)
		}
	}
	if n := lab.Scheduler().Cache().Len(); n != 4 {
		t.Fatalf("result cache holds %d entries before Forget, want 4", n)
	}
	lab.Forget(b, specs, done...)
	if n := lab.Scheduler().Cache().Len(); n != 0 {
		t.Errorf("result cache holds %d entries after Forget, want 0", n)
	}
	if n, m := len(lab.comp), len(lab.srcs); n != 0 || m != 0 {
		t.Errorf("memos hold %d compiles and %d source digests after Forget, want none", n, m)
	}
}

// TestCompileMemoIsSource checks that the compile memo is keyed by what
// it compiles: a benchmark submitted again under a known name with a new
// source runs the new source, on a sequential and on a parallel lab.
func TestCompileMemoIsSource(t *testing.T) {
	for _, lab := range []*Lab{NewLab(), NewParallelLab(2)} {
		p := bench.Benchmark{Name: "p", MaxInstrs: 100_000}
		var outs []string
		for _, v := range []string{"1", "2"} {
			p.Source = "int main() { print_int(" + v + "); return 0; }\n"
			m, err := lab.Measure(&p, isa.D16())
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, m.Output)
		}
		if outs[0] == outs[1] {
			t.Errorf("two sources under one name both printed %q", outs[0])
		}
		lab.Scheduler().Shutdown(context.Background())
	}
}
