package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// The golden-cells fixture pins the timing engine's observable results —
// Cycles(), the full cycle-attribution Breakdown, and a digest of the
// per-PC attribution table — for every seed image across the paper's
// eight cacheless grid cells ({4,8}-byte bus × 0–3 wait states). It was
// captured from the engine before the allocation-free hot-loop refactor,
// so any divergence introduced by predecoding, machine pooling, or the
// devirtualized observer path fails this test with the exact cell.
//
// Regenerate (only when the model itself is intentionally changed) with:
//
//	go test ./internal/core/ -run TestGoldenCells -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cells.json from the current engine")

type goldenCell struct {
	Bus      uint32  `json:"bus"`
	Waits    int64   `json:"waits"`
	Cycles   int64   `json:"cycles"`
	Buckets  []int64 `json:"buckets"`
	PerPCSHA string  `json:"per_pc_sha256"`
}

type goldenImage struct {
	Bench  string       `json:"bench"`
	Config string       `json:"config"`
	Cells  []goldenCell `json:"cells"`
}

const goldenPath = "testdata/golden_cells.json"

// goldenGrid is the 8-cell cacheless grid the fixture covers.
func goldenGrid() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, bus := range []uint32{4, 8} {
		for waits := int64(0); waits <= 3; waits++ {
			cfgs = append(cfgs, pipeline.Config{BusBytes: bus, WaitStates: waits})
		}
	}
	return cfgs
}

// perPCDigest folds the engine's per-PC attribution rows (address,
// buckets, fetch bytes) into a stable digest.
func perPCDigest(e *pipeline.Engine) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, row := range e.PerPC() {
		put(int64(row.PC))
		for _, b := range row.Buckets {
			put(b)
		}
		put(row.FetchBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureGoldenImage runs one compiled image once with all eight grid
// engines attached (per-PC accounting on) and extracts the cells. The
// run also checks the counter-derived bus models and immediate
// classification against real observers (oracle_test.go).
func measureGoldenImage(t *testing.T, b *bench.Benchmark, spec *isa.Spec) goldenImage {
	t.Helper()
	lab := NewLab()
	c, err := lab.Compile(b, spec)
	if err != nil {
		t.Fatalf("compile %s on %s: %v", b.Name, spec.Name, err)
	}
	m, err := sim.New(c.Image)
	if err != nil {
		t.Fatalf("machine %s on %s: %v", b.Name, spec.Name, err)
	}
	cfgs := goldenGrid()
	engines := make([]*pipeline.Engine, len(cfgs))
	for i, cfg := range cfgs {
		engines[i] = pipeline.New(cfg)
		engines[i].EnablePCAccounting()
		m.Attach(engines[i])
	}
	// The same run also feeds the bus-counter oracle (oracle_test.go).
	oracles := attachOracles(m)
	if err := m.Run(b.MaxInstrs); err != nil {
		t.Fatalf("run %s on %s: %v", b.Name, spec.Name, err)
	}
	checkCounters(t, b.Name+" on "+spec.Name, m, oracles)
	img := goldenImage{Bench: b.Name, Config: spec.Name}
	for i, e := range engines {
		bd := e.Breakdown()
		img.Cells = append(img.Cells, goldenCell{
			Bus:      cfgs[i].BusBytes,
			Waits:    cfgs[i].WaitStates,
			Cycles:   e.Cycles(),
			Buckets:  bd[:],
			PerPCSHA: perPCDigest(e),
		})
	}
	return img
}

// goldenSuite is the covered image set: every seed benchmark × every
// paper configuration. In -short runs a small cross-section keeps the
// test quick; the full gate runs everything.
func goldenSuite(t *testing.T) []*bench.Benchmark {
	if !testing.Short() {
		return bench.All()
	}
	var out []*bench.Benchmark
	for _, name := range []string{"queens", "towers", "bubblesort"} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("golden short suite: benchmark %q missing", name)
		}
		out = append(out, b)
	}
	return out
}

func TestGoldenCells(t *testing.T) {
	benches, specs := goldenSuite(t), Configs()
	got := make([]goldenImage, len(benches)*len(specs))
	// Images are independent runs, so they run in parallel: under -race
	// one at a time takes most of go test's default ten-minute budget.
	t.Run("images", func(t *testing.T) {
		for i, b := range benches {
			for j, spec := range specs {
				t.Run(b.Name+"/"+spec.Name, func(t *testing.T) {
					t.Parallel()
					got[i*len(specs)+j] = measureGoldenImage(t, b, spec)
				})
			}
		}
	})
	if t.Failed() {
		return
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d images)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update-golden to create): %v", err)
	}
	var want []goldenImage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]goldenImage{}
	for _, w := range want {
		byKey[w.Bench+"|"+w.Config] = w
	}
	for _, g := range got {
		w, ok := byKey[g.Bench+"|"+g.Config]
		if !ok {
			t.Errorf("%s on %s: no golden entry (regenerate fixture)", g.Bench, g.Config)
			continue
		}
		for i, cell := range g.Cells {
			wc := w.Cells[i]
			if cell.Cycles != wc.Cycles {
				t.Errorf("%s on %s bus=%d waits=%d: cycles %d, golden %d",
					g.Bench, g.Config, cell.Bus, cell.Waits, cell.Cycles, wc.Cycles)
			}
			for bkt := range cell.Buckets {
				if cell.Buckets[bkt] != wc.Buckets[bkt] {
					t.Errorf("%s on %s bus=%d waits=%d: bucket %s %d, golden %d",
						g.Bench, g.Config, cell.Bus, cell.Waits,
						pipeline.Bucket(bkt), cell.Buckets[bkt], wc.Buckets[bkt])
				}
			}
			if cell.PerPCSHA != wc.PerPCSHA {
				t.Errorf("%s on %s bus=%d waits=%d: per-PC table digest %s, golden %s",
					g.Bench, g.Config, cell.Bus, cell.Waits, cell.PerPCSHA, wc.PerPCSHA)
			}
		}
	}
}
