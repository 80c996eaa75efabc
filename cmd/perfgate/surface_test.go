package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

func surfacePoint(benchName string, cycles, ifetch int64) store.Point {
	p := store.Point{
		Bench: benchName, Config: "D16/16/2", BusBytes: 2, WaitStates: 1,
		Cycles: cycles, Instrs: cycles - ifetch,
	}
	p.Buckets[store.BUseful] = cycles - ifetch
	p.Buckets[store.BIFetchWait] = ifetch
	return p
}

// TestRunSurface writes two stores where one point carries a +15%
// cycle regression and checks the gate fails on exactly that, while the
// clean pair passes.
func TestRunSurface(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mcst")
	b := filepath.Join(dir, "b.mcst")
	c := filepath.Join(dir, "c.mcst")

	base := []store.Point{surfacePoint("queens", 1000, 100), surfacePoint("towers", 2000, 200)}
	regressed := []store.Point{surfacePoint("queens", 1150, 250), surfacePoint("towers", 2000, 200)}

	for path, pts := range map[string][]store.Point{a: base, b: regressed, c: base} {
		if err := store.WriteFile(path, pts); err != nil {
			t.Fatal(err)
		}
	}

	err := runSurface(a+","+b, 0.10)
	if err == nil {
		t.Fatal("surface gate passed a 15% regression")
	}
	if !strings.Contains(err.Error(), "1 point(s) regressed") {
		t.Fatalf("gate error = %v, want one regressed point", err)
	}

	if err := runSurface(a+","+c, 0.10); err != nil {
		t.Fatalf("identical surfaces failed the gate: %v", err)
	}

	if err := runSurface(a, 0.10); err == nil {
		t.Fatal("single-file spec accepted")
	}
	if err := runSurface(a+","+filepath.Join(dir, "missing.mcst"), 0.10); err == nil {
		t.Fatal("missing store accepted")
	}
}
