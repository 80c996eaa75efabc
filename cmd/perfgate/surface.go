package main

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// runSurface is perfgate's whole-surface gate: it diffs two columnar
// measurement stores (baseline first) with store.Diff and fails when any
// matched point's cycles regressed past the threshold. The report names
// the worst movers and, per cycle bucket, the point where that cause
// grew most.
func runSurface(spec string, threshold float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-surface wants two store files: -surface baseline.mcst,current.mcst")
	}
	a, err := store.ReadFile(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	b, err := store.ReadFile(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	rep := store.Diff(a, b, store.DiffOptions{Threshold: threshold})

	fmt.Printf("surface diff: %d vs %d points, %d matched (threshold %.0f%%)\n",
		rep.PointsA, rep.PointsB, rep.Matched, rep.Threshold*100)
	if len(rep.OnlyA) > 0 || len(rep.OnlyB) > 0 {
		fmt.Printf("  coverage: %d points only in baseline, %d only in current\n",
			len(rep.OnlyA), len(rep.OnlyB))
	}
	for _, d := range rep.Deltas {
		if d.Delta == 0 {
			continue
		}
		tag := "moved"
		switch {
		case d.Rel > rep.Threshold:
			tag = "REGRESSION"
		case d.Rel < -rep.Threshold:
			tag = "improved"
		}
		fmt.Printf("  %-10s %s: cycles %d -> %d (%+.1f%%, worst bucket %s)\n",
			tag, d.PointKey, d.CyclesA, d.CyclesB, d.Rel*100, orNone(d.WorstBucket))
	}
	for _, m := range rep.WorstByBucket {
		fmt.Printf("  bucket %-15s grew most at %s: +%d cycles (%.1f%% of point)\n",
			m.Bucket, m.PointKey, m.Delta, m.Rel*100)
	}
	if rep.Regressed > 0 {
		return fmt.Errorf("%d point(s) regressed more than %.0f%% (worst %.1f%%)",
			rep.Regressed, rep.Threshold*100, rep.MaxRel*100)
	}
	fmt.Printf("surface gate passes: %d regressed, %d improved, worst rel %+.1f%%\n",
		rep.Regressed, rep.Improved, rep.MaxRel*100)
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
