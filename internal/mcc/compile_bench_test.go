package mcc_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/synth"
)

// BenchmarkCompile measures the whole front end of one sweep-shaped
// workload: ten fixed seeds of every synth class, each compiled for D16
// and DLXe (parse, optimize, allocate, emit, assemble, verify, analyze).
// One op is the whole set of 120 compiles, so ns/op, B/op and allocs/op
// compare directly across compiler changes:
//
//	go test -run '^$' -bench Compile -benchtime 3x ./internal/mcc/
func BenchmarkCompile(b *testing.B) {
	var progs []*synth.Program
	for _, class := range synth.Classes() {
		for i := 0; i < 10; i++ {
			p, err := synth.Generate(class, synth.DeriveSeed(7, class, i))
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p)
		}
	}
	specs := []*isa.Spec{isa.D16(), isa.DLXe()}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			for _, spec := range specs {
				if _, err := mcc.Compile(p.Name, p.Source, spec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
