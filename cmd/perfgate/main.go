// Command perfgate is the cycle gate between two measurement surfaces:
// it diffs a baseline and a current columnar store (.mcst, written by
// `repro -json DIR` or `repro -sweep -store FILE`) with store.Diff and
// fails when any matched point's cycles regressed past the threshold.
// The report names the worst movers and, per cycle bucket, the point
// where that cause grew most (see docs/STORE.md). Cycles are
// deterministic, so the gate holds across hosts and runs.
//
// Usage:
//
//	perfgate -surface baseline.mcst,current.mcst [-threshold 0.10]
//
// Exit codes: 0 the gate passes; 1 a point regressed or a store could
// not be read; 2 bad usage. Wall-clock speed is judged by
// `bash benchmark/run.sh` (benchmark/README.md) and the layer
// benchmarks under `go test -bench`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	surface := flag.String("surface", "", "the two measurement stores to diff: baseline.mcst,current.mcst")
	threshold := flag.Float64("threshold", 0.10, "relative cycle growth of a point that fails the gate")
	flag.Parse()
	if *surface == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfgate -surface baseline.mcst,current.mcst [-threshold 0.10]")
		os.Exit(2)
	}
	if err := runSurface(*surface, *threshold); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfgate:", err)
	os.Exit(1)
}
