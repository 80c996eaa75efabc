// Package bench provides the paper's benchmark suite (Table 2),
// re-written in MC and scaled to simulator-friendly problem sizes.
//
// Every program prints a deterministic checksum, so one expected output
// validates all five compiler configurations; the three "cache
// benchmarks" (assem, ipl, latex) are the programs the paper's Section
// 4.1 uses for its cache studies, with instruction working sets large
// enough to exercise 1–16 KiB instruction caches.
package bench

import (
	"slices"
	"sync"
)

// Benchmark is one suite program.
type Benchmark struct {
	Name string
	// Desc matches the paper's Table 2 description.
	Desc string
	// Source is the MC program text.
	Source string
	// Expect is the exact simulator output (empty = only cross-config
	// agreement is checked).
	Expect string
	// MaxInstrs bounds the run (runaway guard).
	MaxInstrs int64
	// CacheBench marks the programs used for the cache experiments.
	CacheBench bool
	// FP marks floating-point-dominated programs.
	FP bool
}

// suite is the benchmark set, built once: latex and ipl are generated
// through synth.EmitPhased, which is too slow to repeat on every
// lookup.
var suite = sync.OnceValue(func() []*Benchmark {
	return []*Benchmark{
		Ackermann(),
		Assem(),
		Bubblesort(),
		Queens(),
		Quicksort(),
		Towers(),
		Grep(),
		Linpack(),
		Matrix(),
		Dhrystone(),
		Pi(),
		Solver(),
		Latex(),
		IPL(),
		Whetstone(),
	}
})

// All returns the full suite in the paper's Table 2 order. The slice is
// the caller's own; the benchmarks it points to are shared by every
// caller and must not be modified.
func All() []*Benchmark { return slices.Clone(suite()) }

// ByName returns the named benchmark or nil. The result is shared (see
// All).
func ByName(name string) *Benchmark {
	for _, b := range suite() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// CacheBenchmarks returns the three programs the paper's cache studies
// use (assem, ipl, latex).
func CacheBenchmarks() []*Benchmark {
	var out []*Benchmark
	for _, b := range suite() {
		if b.CacheBench {
			out = append(out, b)
		}
	}
	return out
}
