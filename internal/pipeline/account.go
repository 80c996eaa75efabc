package pipeline

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

// Bucket is one cause a simulated cycle can be attributed to. Every
// cycle the engine charges lands in exactly one bucket, so the bucket
// sums reconstruct Engine.Cycles() exactly (the accounting invariant
// the property tests pin down).
type Bucket int

const (
	// BUseful is the one issue cycle every instruction costs at peak.
	BUseful Bucket = iota
	// BLoadDelay is operand stall in the architectural load delay slot
	// (the LatLoad window, independent of memory-system timing).
	BLoadDelay
	// BFPU is operand stall on multi-cycle FPU results, converts, and
	// FPSR reads behind FP compares.
	BFPU
	// BFetchWait is instruction-fetch wait states on buffer refills
	// (cacheless memory latency on the instruction side).
	BFetchWait
	// BDataWait is data-memory wait states surfaced through load-use
	// dependences (latency beyond the architectural delay slot).
	BDataWait
	// BPortContention is time lost waiting for a busy memory port, on
	// either the instruction or the data side (the structural hazard
	// the paper's closed-form estimate ignores).
	BPortContention
	// BCacheMiss is miss-penalty time when a cache system is attached
	// (it replaces BFetchWait/BDataWait on cached engines).
	BCacheMiss
	// BDrain is the constant pipeline fill/drain tail.
	BDrain

	NumBuckets int = iota
)

// bucketNames are the stable exported identifiers (metrics suffixes,
// JSON part names, table rows).
var bucketNames = [NumBuckets]string{
	"useful", "load_delay", "fpu", "ifetch_wait", "dmem_wait",
	"port_contention", "cache_miss", "drain",
}

// String returns the bucket's stable identifier.
func (b Bucket) String() string {
	if b < 0 || int(b) >= NumBuckets {
		return fmt.Sprintf("bucket(%d)", int(b))
	}
	return bucketNames[b]
}

// Breakdown is a full cycle attribution: one count per bucket.
type Breakdown [NumBuckets]int64

// Sum returns total attributed cycles.
func (bd Breakdown) Sum() int64 {
	var s int64
	for _, v := range bd {
		s += v
	}
	return s
}

// Snapshot converts the attribution to the telemetry exchange type;
// the embedded total is the bucket sum, so Check() always passes.
func (bd Breakdown) Snapshot(name string) *telemetry.Breakdown {
	out := telemetry.NewBreakdown(name, bd.Sum())
	for b := 0; b < NumBuckets; b++ {
		out.Add(Bucket(b).String(), bd[b])
	}
	return out
}

// Breakdown returns the engine's global cycle attribution; its sum
// equals Cycles() exactly.
func (e *Engine) Breakdown() Breakdown {
	bd := e.buckets
	for i := range e.perPC {
		for b, n := range e.perPC[i] {
			bd[b] += n
		}
	}
	if e.Instrs > 0 {
		bd[BDrain] = DrainCycles
	}
	return bd
}

// charge attributes n cycles at pc to bucket b of row: the engine's
// global buckets, or pc's per-PC row when per-PC accounting is on (the
// global breakdown is then the rows' sum). The window occupies stage st
// and ends at cycle end (inclusive); when a flight recorder is attached
// the window is also emitted as a stage-occupancy event, so the event
// stream mirrors the bucket charges exactly. charge inlines into
// ExecOp, so only a recorder costs a call.
func (e *Engine) charge(row *Breakdown, pc uint32, b Bucket, n int64, st Stage, end int64) {
	row[b] += n
	if e.rec != nil {
		e.recordCharge(pc, b, n, st, end)
	}
}

// recordCharge emits a non-empty charge window to the flight recorder.
// It stays out of line so charge itself fits the inlining budget.
//
//go:noinline
func (e *Engine) recordCharge(pc uint32, b Bucket, n int64, st Stage, end int64) {
	if n != 0 {
		e.rec.record(Event{Cycle: end - n + 1, N: n, PC: pc, Stage: st, Cause: b})
	}
}

// growPC grows the per-PC tables to hold row i. Rows are indexed by
// half-words from the text base so one table shape serves both
// encodings. The tables grow like append does, so a run that reaches a
// new highest pc at every step still copies them only a logarithmic
// number of times; rows past the old length were never written, so
// they read as zero.
func (e *Engine) growPC(i int) {
	e.perPC = slices.Grow(e.perPC, i+1-len(e.perPC))[:i+1]
	e.perPCFetch = slices.Grow(e.perPCFetch, i+1-len(e.perPCFetch))[:i+1]
}

// EnablePCAccounting turns on per-PC cycle attribution (and per-PC
// fetch-transfer counting). Call before the run; Breakdown sums the
// rows, so the global breakdown is the same either way.
func (e *Engine) EnablePCAccounting() {
	if e.perPC == nil {
		e.perPC = make([]Breakdown, 0, 1024)
		e.perPCFetch = make([]int64, 0, 1024)
	}
}

// FetchBytes returns the instruction bytes moved over the memory bus:
// bus-width transfers per fetch-buffer refill (cacheless) or per
// instruction-cache miss (cached engines).
func (e *Engine) FetchBytes() int64 { return e.fetchXfers * int64(e.cfg.BusBytes) }

// PCAccount is one per-PC attribution row.
type PCAccount struct {
	PC         uint32
	Buckets    Breakdown
	FetchBytes int64
}

// PerPC returns the non-empty per-PC rows in ascending address order.
// The drain bucket is global only: the per-PC bucket sums plus
// DrainCycles reconstruct Cycles().
func (e *Engine) PerPC() []PCAccount {
	var out []PCAccount
	for i := range e.perPC {
		if e.perPC[i] == (Breakdown{}) && e.perPCFetch[i] == 0 {
			continue
		}
		out = append(out, PCAccount{
			PC:         isa.TextBase + uint32(i)*2,
			Buckets:    e.perPC[i],
			FetchBytes: e.perPCFetch[i] * int64(e.cfg.BusBytes),
		})
	}
	return out
}

// FuncAccount aggregates attribution over one function symbol.
type FuncAccount struct {
	Name       string
	Buckets    Breakdown
	Cycles     int64 // bucket sum for the function
	FetchBytes int64
}

// PerFunc folds the per-PC table over a symbol table (the same
// machinery sim.Profile uses), sorted by cycles descending then name.
// Requires EnablePCAccounting before the run.
func (e *Engine) PerFunc(st *prog.SymTable) []FuncAccount {
	byIdx := map[int]*FuncAccount{}
	for _, row := range e.PerPC() {
		i := st.Index(row.PC)
		fa := byIdx[i]
		if fa == nil {
			fa = &FuncAccount{Name: st.Name(i)}
			byIdx[i] = fa
		}
		for b := 0; b < NumBuckets; b++ {
			fa.Buckets[b] += row.Buckets[b]
		}
		fa.FetchBytes += row.FetchBytes
	}
	out := make([]FuncAccount, 0, len(byIdx))
	for _, fa := range byIdx { //detlint:ignore rangemap sorted immediately below

		fa.Cycles = fa.Buckets.Sum()
		out = append(out, *fa)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RegisterMetrics publishes the engine's counters and per-bucket cycle
// attribution as live func gauges under prefix (e.g. "pipe.d16.").
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.RegisterFunc(prefix+"instrs", func() int64 { return e.Instrs })
	reg.RegisterFunc(prefix+"fetch_requests", func() int64 { return e.FetchRequests })
	reg.RegisterFunc(prefix+"data_requests", func() int64 { return e.DataRequests })
	reg.RegisterFunc(prefix+"fetch_bytes", e.FetchBytes)
	reg.RegisterFunc(prefix+"cycles", e.Cycles)
	for b := 0; b < NumBuckets; b++ {
		b := Bucket(b)
		reg.RegisterFunc(prefix+"cycles."+b.String(), func() int64 { return e.Breakdown()[b] })
	}
}

// WriteBreakdown renders one or more engines' attributions side by side
// as an aligned text table (the shared rendering for mcrun -account and
// ad-hoc dumps; repro uses the experiment table machinery instead).
func WriteBreakdown(w io.Writer, names []string, bds []Breakdown) {
	fmt.Fprintf(w, "%-16s", "bucket")
	for _, n := range names {
		fmt.Fprintf(w, "  %12s  %6s", n, "%")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 16+len(names)*22))
	for b := 0; b < NumBuckets; b++ {
		fmt.Fprintf(w, "%-16s", Bucket(b).String())
		for _, bd := range bds {
			total := bd.Sum()
			pc := 0.0
			if total > 0 {
				pc = 100 * float64(bd[b]) / float64(total)
			}
			fmt.Fprintf(w, "  %12d  %6.2f", bd[b], pc)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s", "total")
	for _, bd := range bds {
		fmt.Fprintf(w, "  %12d  %6.2f", bd.Sum(), 100.0)
	}
	fmt.Fprintln(w)
}
