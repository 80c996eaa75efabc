package static

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// drainCycles mirrors the engine's constant fill/drain tail.
const drainCycles = int64(pipeline.DrainCycles)

// report assembles the final Report from the structural analysis: the
// density tables are layout arithmetic, the bound grids solve the min
// fixpoint and the memoized max once per memory-interface cell.
func (a *analysis) report() *Report {
	rep := &Report{Config: a.cfg.Config, Enc: a.cfg.Enc}

	// One min solution and one max context per grid cell, shared by the
	// image rows and every function's rows.
	type cell struct {
		bus uint32
		w   int64
		sol *minSolution
		mc  *maxCtx
	}
	var cells []cell
	for _, bus := range GridBuses {
		for w := int64(0); w < GridWaits; w++ {
			cells = append(cells, cell{bus, w, a.solveMin(bus, w), a.newMaxCtx(bus, w)})
		}
	}

	// Image stats.
	img := &rep.Image
	img.SizeBytes = int64(a.img.Size())
	img.TextBytes = int64(len(a.img.Text))
	img.PoolBytes = int64(a.img.PoolBytes)
	img.DataBytes = int64(len(a.img.Data))
	img.Instrs = int64(a.img.TextInstrs)
	img.InstrBytes = img.Instrs * int64(a.ib)
	img.Funcs = len(a.funcs)
	for _, bus := range FetchBuses {
		words := a.fetchWords(isa.TextBase, a.img.TextEnd(), bus)
		img.FetchWords = append(img.FetchWords, FetchRow{
			BusBytes: bus, Words: words, Bytes: words * int64(bus),
		})
	}

	// Function stats, in address order (cfg.Funcs order).
	for _, fi := range a.funcs {
		fc := fi.fc
		fs := FuncStats{
			Name:   fc.Name,
			Entry:  fc.Entry,
			Bytes:  int64(fc.End - fc.Entry),
			Blocks: len(fc.Blocks),
			Loops:  len(fi.loops),
		}
		fs.Instrs = a.instrsIn(fc.Entry, fc.End)
		fs.InstrBytes = fs.Instrs * int64(a.ib)
		for _, d := range fi.depth {
			if d > fs.MaxDepth {
				fs.MaxDepth = d
			}
		}
		for _, L := range fi.loops {
			if L.bound != top {
				img.BoundedLoops++
			}
			fs.LoopStats = append(fs.LoopStats, LoopStat{
				Head:  fc.Blocks[L.head].Start,
				Depth: fi.depth[L.head],
				Bound: L.bound,
			})
		}
		//detlint:ignore sortslice loop headers are unique per function
		sort.Slice(fs.LoopStats, func(i, j int) bool {
			return fs.LoopStats[i].Head < fs.LoopStats[j].Head
		})
		img.Blocks += len(fc.Blocks)
		img.Loops += len(fi.loops)
		fs.FuseCmpBranch, fs.FuseLdcJump = a.pairCensus(fc)
		img.FuseCmpBranch += fs.FuseCmpBranch
		img.FuseLdcJump += fs.FuseLdcJump

		for _, c := range cells {
			mn := min64(c.sol.minRet[fi.idx], c.sol.minHalt[fi.idx])
			if mn >= inf {
				mn = 0 // no provable exit: the trivial lower bound
			}
			fs.Bounds = append(fs.Bounds, BoundRow{
				BusBytes:   c.bus,
				WaitStates: c.w,
				MinCycles:  mn,
				MaxCycles:  c.mc.maxTotal(fc.Entry),
			})
		}
		rep.Funcs = append(rep.Funcs, fs)
	}

	// Whole-image grid: entry to halt. The entry fetch always misses the
	// empty fetch buffer (+W) and the drain tail is constant.
	for _, c := range cells {
		mh := c.sol.minHalt[a.byEntry[a.cfg.Entry].idx]
		row := BoundRow{BusBytes: c.bus, WaitStates: c.w}
		if mh >= inf {
			row.MinCycles = 0
			a.diag(a.cfg.Entry, DiagNoHalt,
				"no halting path from the entry is provable; lower bound is trivial")
		} else {
			row.MinCycles = mh + c.w + drainCycles
		}
		row.MaxCycles = tAdd(c.mc.maxTotal(a.cfg.Entry), drainCycles)
		rep.Bounds = append(rep.Bounds, row)
	}

	// MinInstrs: with zero wait states every cycle of the minimum is an
	// issue, so the w=0 min-to-halt IS the shortest halting path length.
	if mh := cells[0].sol.minHalt[a.byEntry[a.cfg.Entry].idx]; mh < inf {
		img.MinInstrs = mh
	}

	a.sortDiags()
	rep.Diags = a.diags
	return rep
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteTable renders the report as deterministic fixed-format text —
// the mcrun/repro -static console surface.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "static v%d  config=%s  enc=%s\n", Version, r.Config, r.Enc)
	i := &r.Image
	fmt.Fprintf(w, "image: size=%dB text=%dB pool=%dB data=%dB instrs=%d instr-bytes=%dB\n",
		i.SizeBytes, i.TextBytes, i.PoolBytes, i.DataBytes, i.Instrs, i.InstrBytes)
	fmt.Fprintf(w, "cfg:   funcs=%d blocks=%d loops=%d bounded-loops=%d fuse-cmp-branch=%d fuse-ldc-jump=%d min-instrs=%d\n",
		i.Funcs, i.Blocks, i.Loops, i.BoundedLoops, i.FuseCmpBranch, i.FuseLdcJump, i.MinInstrs)
	fmt.Fprintf(w, "ifetch traffic (stream every static instruction once):\n")
	for _, f := range i.FetchWords {
		fmt.Fprintf(w, "  bus=%dB  words=%-6d bytes=%d\n", f.BusBytes, f.Words, f.Bytes)
	}
	fmt.Fprintf(w, "image cycle bounds (entry to halt, drain included):\n")
	for _, b := range r.Bounds {
		fmt.Fprintf(w, "  bus=%dB w=%d  min=%-8d max=%s\n", b.BusBytes, b.WaitStates, b.MinCycles, maxStr(b.MaxCycles))
	}
	fmt.Fprintf(w, "functions:\n")
	for _, f := range r.Funcs {
		fmt.Fprintf(w, "  %s @%#06x  bytes=%d instrs=%d blocks=%d loops=%d depth=%d fuse=%d+%d\n",
			f.Name, f.Entry, f.Bytes, f.Instrs, f.Blocks, f.Loops, f.MaxDepth,
			f.FuseCmpBranch, f.FuseLdcJump)
		for _, L := range f.LoopStats {
			fmt.Fprintf(w, "    loop @%#06x depth=%d bound=%s\n", L.Head, L.Depth, maxStr(L.Bound))
		}
		for _, b := range f.Bounds {
			fmt.Fprintf(w, "    bus=%dB w=%d  min=%-8d max=%s\n",
				b.BusBytes, b.WaitStates, b.MinCycles, maxStr(b.MaxCycles))
		}
	}
	if len(r.Diags) > 0 {
		fmt.Fprintf(w, "diagnostics:\n")
		for _, d := range r.Diags {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
}

func maxStr(v int64) string {
	if v == top {
		return "unbounded"
	}
	return fmt.Sprintf("%d", v)
}

// sortDiags orders the diagnostics by PC, kind, message.
func (a *analysis) sortDiags() {
	sort.Slice(a.diags, func(i, j int) bool {
		x, y := a.diags[i], a.diags[j]
		if x.PC != y.PC {
			return x.PC < y.PC
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Msg < y.Msg
	})
}
