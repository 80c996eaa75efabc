// Package static is the interprocedural static cost and density
// analyzer: it reproduces the paper's static half — code density and
// instruction-fetch traffic per bus width — and computes sound
// whole-image cycle intervals [min, max], all without simulating a
// cycle. It consumes the control-flow graph a clean verify.Image report
// carries (verify.Report.CFG), so every analyzed instruction provably
// decodes and every edge was validated; nothing is re-proved here.
//
// The cycle bounds model the separate-port, cacheless pipeline engine
// exactly (pipeline.Config{SharedPort: false, Caches: nil}): for every
// halting run, Engine.Cycles() lies within the reported interval — the
// standing containment property TestContainment and FuzzContainment
// enforce across the seed benches and the synth corpus. Loop trip
// counts are inferred from the mvi/ldc counted-loop idiom; anything the
// analysis cannot bound (unbounded loops, irreducible flow, unresolved
// indirect jumps, recursion) sends the upper bound to ⊤, reported as
// MaxCycles = -1. See docs/STATIC.md for the model and its soundness
// argument.
package static

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Version numbers the analyzer's rule set (bound formulas, loop-idiom
// recognizer, diagnostics). Report consumers may mix it into cache keys.
const Version = 1

// Grid is the Appendix-A memory-interface grid the image bounds expand
// over: the 32- and 64-bit fetch buses crossed with 0..3 wait states —
// the same cells core.Measurement.Points persists.
var GridBuses = []uint32{4, 8}

// GridWaits is the exclusive upper bound of the wait-state axis.
const GridWaits = 4

// FetchBuses is the density table's bus-width axis; it adds the paper's
// 16-bit bus, where D16's fetch-traffic advantage is starkest.
var FetchBuses = []uint32{2, 4, 8}

// Diagnostic kinds: the reasons an upper bound goes to ⊤.
const (
	DiagUnboundedLoop  = "unbounded-loop"
	DiagIrreducible    = "irreducible-cfg"
	DiagUnresolvedJump = "unresolved-jump"
	DiagUnresolvedCall = "unresolved-call"
	DiagRecursion      = "recursion"
	DiagNoHalt         = "no-halt"
)

// Diag is one PC-anchored analysis diagnostic. Unlike a verify
// violation it does not reject the image — it explains a ⊤ bound.
type Diag struct {
	PC   uint32 `json:"pc"`
	Sym  string `json:"sym,omitempty"`
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

func (d Diag) String() string {
	loc := fmt.Sprintf("%#06x", d.PC)
	if d.Sym != "" {
		loc += " (" + d.Sym + ")"
	}
	return fmt.Sprintf("%s [%s] %s", loc, d.Kind, d.Msg)
}

// BoundRow is one cell of the static cycle-bound grid. MaxCycles is -1
// when the upper bound is ⊤ (see Diags for why); MinCycles is always
// finite and sound.
type BoundRow struct {
	BusBytes   uint32 `json:"bus_bytes"`
	WaitStates int64  `json:"wait_states"`
	MinCycles  int64  `json:"min_cycles"`
	MaxCycles  int64  `json:"max_cycles"` // -1 = ⊤
}

// FetchRow is one row of the static ifetch-traffic table: the bus words
// (and bytes) needed to stream every static instruction exactly once.
type FetchRow struct {
	BusBytes uint32 `json:"bus_bytes"`
	Words    int64  `json:"words"`
	Bytes    int64  `json:"bytes"`
}

// ImageStats is the whole-image static summary.
type ImageStats struct {
	SizeBytes  int64 `json:"size_bytes"` // text + data: the paper's density metric
	TextBytes  int64 `json:"text_bytes"`
	PoolBytes  int64 `json:"pool_bytes"`
	DataBytes  int64 `json:"data_bytes"`
	Instrs     int64 `json:"instrs"`      // static instruction count
	InstrBytes int64 `json:"instr_bytes"` // Instrs x instruction width

	Funcs        int `json:"funcs"`
	Blocks       int `json:"blocks"`
	Loops        int `json:"loops"`
	BoundedLoops int `json:"bounded_loops"`

	// Statically fusible adjacent pairs (ROADMAP item 2's macro-op
	// fusion candidates), counted once per static occurrence.
	FuseCmpBranch int64 `json:"fuse_cmp_branch"`
	FuseLdcJump   int64 `json:"fuse_ldc_jump"`

	// MinInstrs is the shortest halting path through the interprocedural
	// CFG in instructions — a bus-independent lower bound on any run's
	// dynamic path length.
	MinInstrs int64 `json:"min_instrs"`

	FetchWords []FetchRow `json:"fetch_words"`
}

// LoopStat is one natural loop's inference result.
type LoopStat struct {
	Head  uint32 `json:"head"`  // header block address
	Depth int    `json:"depth"` // nesting depth of the header (1 = outermost)
	Bound int64  `json:"bound"` // max header executions per loop entry; -1 = ⊤
}

// FuncStats is one function's static summary. Its bound rows are per
// invocation (entry to return — or to halt, whichever is provable) and
// exclude the pipeline drain.
type FuncStats struct {
	Name       string `json:"name"`
	Entry      uint32 `json:"entry"`
	Bytes      int64  `json:"bytes"` // span including embedded pools
	Instrs     int64  `json:"instrs"`
	InstrBytes int64  `json:"instr_bytes"`
	Blocks     int    `json:"blocks"`
	Loops      int    `json:"loops"`
	MaxDepth   int    `json:"max_loop_depth"`

	FuseCmpBranch int64 `json:"fuse_cmp_branch"`
	FuseLdcJump   int64 `json:"fuse_ldc_jump"`

	LoopStats []LoopStat `json:"loop_stats,omitempty"`
	Bounds    []BoundRow `json:"bounds"`
}

// Report is the full static analysis of one image.
type Report struct {
	Config string      `json:"config"`
	Enc    string      `json:"enc"`
	Image  ImageStats  `json:"image"`
	Funcs  []FuncStats `json:"funcs"`
	// Bounds is the whole-image grid: entry to halt, first fetch and
	// pipeline drain included.
	Bounds []BoundRow `json:"bounds"`
	Diags  []Diag     `json:"diags,omitempty"`
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *Report) WriteJSON(path string) error { return telemetry.WriteJSONFile(path, r) }

// BoundAt returns the image bound row for one grid cell.
func (r *Report) BoundAt(bus uint32, waits int64) (BoundRow, bool) {
	for _, b := range r.Bounds {
		if b.BusBytes == bus && b.WaitStates == waits {
			return b, true
		}
	}
	return BoundRow{}, false
}

// Analyze verifies img against spec and, when clean, runs the full
// static analysis on the verifier's CFG: the entry for a bare image. A
// dirty image returns the *verify.Error carrying the violation report —
// the same failure mcrun/repro surface as exit 3.
func Analyze(img *prog.Image, spec *isa.Spec) (*Report, error) {
	vrep := verify.Image(img, spec)
	if !vrep.OK() {
		return nil, vrep.Err()
	}
	return AnalyzeCFG(img, spec, vrep.CFG()), nil
}

// AnalyzeCFG runs the full static analysis of img over g, the CFG a
// clean verify.Image report carries. It re-proves nothing, so a caller
// that has already verified img (mcc.Compile's gate) pays for the
// analysis alone.
func AnalyzeCFG(img *prog.Image, spec *isa.Spec, g *verify.CFG) *Report {
	span := telemetry.StartSpan("static", telemetry.String("config", spec.Name))
	defer span.End()
	a := &analysis{
		img:  img,
		spec: spec,
		cfg:  g,
		ib:   img.Enc.InstrBytes(),
	}
	a.build()
	rep := a.report()
	reg := telemetry.Default()
	reg.Counter("static.images").Inc()
	reg.Counter("static.diags").Add(int64(len(rep.Diags)))
	return rep
}

// top is the ⊤ sentinel for cycle quantities; inf the unreachable
// sentinel for shortest-path distances.
const (
	top    = int64(-1)
	inf    = int64(1) << 60
	satCap = int64(1) << 50 // saturation threshold: larger goes to ⊤
)

// tAdd adds two possibly-⊤ quantities, saturating to ⊤.
func tAdd(a, b int64) int64 {
	if a == top || b == top {
		return top
	}
	if s := a + b; s < satCap {
		return s
	}
	return top
}

// tMul multiplies two possibly-⊤ quantities, saturating to ⊤.
func tMul(a, b int64) int64 {
	if a == top || b == top {
		return top
	}
	if a == 0 || b == 0 {
		return 0
	}
	if a < satCap/b {
		return a * b
	}
	return top
}
