// Package sim is the architecture simulator: it executes programs in
// either instruction encoding on the paper's five-stage pipeline model.
//
// Execution is functional-plus-timing: instructions execute one per cycle
// at peak, with the two dynamic penalty sources the paper models layered
// on top:
//
//   - interlocks, counted by a register scoreboard (one delay slot on
//     loads, multi-cycle FPU result latencies), and
//   - instruction/data memory traffic, exposed to pluggable Observers so
//     that memory-system timing models (memsys, cache) can be attached —
//     several at once — without re-running the program.
//
// Control transfers have one architectural delay slot: the instruction
// after a branch/jump always executes.
//
// # Concurrency and ownership
//
// A Machine and everything attached to it (observers, trace ring,
// output buffer) belong to one run on one goroutine; none of it is
// internally locked. The *prog.Image passed to New is only read — its
// segments are copied into the machine's private memory, and its text
// is predecoded exactly once per distinct image into an immutable
// shared table (see the decode package) — so a single compiled image
// may safely back any number of machines running concurrently on
// distinct goroutines. The package's only mutable package-level state
// is the machine free pool (Acquire/Release), which hands each machine
// to exactly one owner at a time; execution is fully deterministic:
// identical images produce identical outputs, stats and observer event
// streams on every run (asserted by core's
// TestConcurrentRunsDeterministic under -race).
//
// # Hot-loop discipline
//
// Run and everything it calls per instruction (account, exec, the
// observer notifications) must not allocate: TestRunDoesNotAllocate
// asserts zero allocations per run, bare, with the pipeline engine and
// with a cache system attached. The timing models the paper's
// experiments attach are devirtualized: pipeline.Engine and
// cache.System observers are recognized once by Attach and called
// directly (a single engine alone gets the tightest path), and only
// observers of other types go through the interface.
// Every observer receives the same predecoded op the loop executes, so
// none re-derives decode metadata per dynamic instruction. The cacheless
// bus models of widths 2, 4 and 8 and the Table 4 immediate classes
// (predecoded once per instruction, see decode.Op.Imm) are counted by
// the loop itself, so measurements that need only counts attach no
// observer at all.
package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

// Stats accumulates the dynamic measures of one run.
type Stats struct {
	Instrs           int64 // path length (includes delay-slot instructions)
	Interlocks       int64 // stall cycles from load delay and FPU latencies
	Loads            int64 // data-read instructions (including ldc pool loads)
	Stores           int64
	PoolLoads        int64 // of Loads, D16 ldc literal-pool reads
	FetchWords       int64 // 32-bit instruction words fetched (simple sequential buffer)
	FetchHalfwords   int64 // 16-bit fetch-buffer refills (a 2-byte bus)
	FetchDoublewords int64 // 64-bit fetch-buffer refills (an 8-byte bus)
	Branches         int64 // executed PC-relative branches
	Taken            int64 // of which taken
	Jumps            int64
	Nops             int64
	// Imm counts executed instructions by Table 4 class
	// (isa.ImmClassOf); the ImmFits slot stays zero.
	Imm [isa.NumImmClasses]int64
}

// DataOps returns total loads + stores (the paper's MemOps).
func (s *Stats) DataOps() int64 { return s.Loads + s.Stores }

// FetchBlocks returns the instruction fetch requests of a cacheless bus
// width bytes wide with a one-block fetch buffer: how often execution
// left the current width-byte block, sequentially or by branching. The
// loop counts widths 2, 4 and 8; ok is false for any other width.
func (s *Stats) FetchBlocks(width uint32) (n int64, ok bool) {
	switch width {
	case 2:
		return s.FetchHalfwords, true
	case 4:
		return s.FetchWords, true
	case 8:
		return s.FetchDoublewords, true
	}
	return 0, false
}

// Observer receives execution events for trace-driven timing models. All
// methods are called in program order.
type Observer interface {
	// Exec is called for every executed instruction with its address
	// and its predecoded op (op.In is the instruction).
	Exec(pc uint32, op decode.Op)
	// Load/Store are called for data accesses (size in bytes).
	Load(addr uint32, size uint32)
	Store(addr uint32, size uint32)
}

// Fault is an execution error (bad memory access, undefined instruction,
// run-away program).
type Fault struct {
	PC  uint32
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("sim: fault at pc=%#x: %s", f.PC, f.Msg) }

// Machine is one simulated processor plus memory.
type Machine struct {
	Enc isa.Encoding
	Mem []byte

	PC   uint32
	GPR  [32]int32
	FPR  [32]uint64
	FPSR bool // FP status register (last FP compare result)

	r0Zero bool
	halted bool

	// Output collects trap-based program output; experiment harnesses
	// compare it against the benchmark's expected checksum.
	Output bytes.Buffer

	Stats Stats

	// TraceW, when non-nil, receives one line per executed instruction
	// (sequence number, pc, disassembly) — the full-trace debug mode.
	TraceW io.Writer

	dec       *decode.Text // shared read-only predecoded text segment
	textBase  uint32
	ib        uint32
	obs       []Observer
	eng       *pipeline.Engine   // devirtualized path when it is the only observer
	engs      []*pipeline.Engine // attached engines, called directly
	caches    []*cache.System    // attached cache systems, called directly
	others    []Observer         // remaining observers, driven via the interface
	itrace    *telemetry.Ring[TraceEntry]
	t         int64 // issue cycle counter for the scoreboard
	ready     [64]int64
	fpsrReady int64
	lastPC    uint32 // pc of the last fetched instruction (noPC = none)

	// Reset bookkeeping: the memory this tenancy may have written —
	// the loaded image's spans plus the byte range covered by executed
	// stores — so a pooled reuse clears only what is dirty instead of
	// re-zeroing all of isa.MemSize.
	loadedTextEnd uint32
	loadedDataEnd uint32
	dirtyLo       uint32
	dirtyHi       uint32
}

// noPC is the fetch-buffer state before the first instruction: an odd
// address no instruction has, so every bus width sees a block change.
const noPC = ^uint32(0)

// TraceEntry is one instruction-trace ring-buffer slot. The faulting
// instruction of a trapped run is included: entries are recorded before
// execution.
type TraceEntry struct {
	Seq int64 // 1-based position in the dynamic instruction stream
	PC  uint32
	In  isa.Instr
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("%10d  %06x  %s", e.Seq, e.PC, e.In)
}

// New loads an image into a fresh machine. The image's text is not
// re-decoded here: the machine borrows the shared predecoded table for
// the image's content (decode.For), so constructing many machines for
// one image costs one decode total.
func New(img *prog.Image) (*Machine, error) {
	m := &Machine{Mem: make([]byte, isa.MemSize)}
	if err := m.Reset(img); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine to the exact state New(img) produces while
// reusing its memory (asserted byte-for-byte, registers included, by
// TestPooledResetMatchesFresh). Only memory the previous tenancy could
// have written is cleared: the prior image's text and data+BSS spans
// and the byte range covered by executed stores. Observers, tracing and
// output are dropped. On error the machine is left partially cleared
// and must be discarded.
func (m *Machine) Reset(img *prog.Image) error {
	if m.loadedTextEnd > isa.TextBase {
		clear(m.Mem[isa.TextBase:m.loadedTextEnd])
	}
	if m.loadedDataEnd > isa.DataBase {
		clear(m.Mem[isa.DataBase:m.loadedDataEnd])
	}
	if m.dirtyHi > m.dirtyLo {
		clear(m.Mem[m.dirtyLo:m.dirtyHi])
	}
	m.Enc = img.Enc
	m.r0Zero = img.Enc == isa.EncDLXe
	m.dec = decode.For(img)
	m.textBase = m.dec.Base
	m.ib = m.dec.IB
	if err := img.Load(m.Mem); err != nil {
		return err
	}
	m.loadedTextEnd = img.TextEnd()
	m.loadedDataEnd = img.DataEnd()
	m.dirtyLo, m.dirtyHi = uint32(len(m.Mem)), 0
	m.PC = img.Entry
	m.GPR = [32]int32{}
	m.FPR = [32]uint64{}
	m.GPR[isa.RegSP.Num()] = int32(isa.StackTop)
	m.GPR[isa.RegGP.Num()] = int32(isa.DataBase)
	m.FPSR = false
	m.halted = false
	m.Output.Reset()
	m.Stats = Stats{}
	m.TraceW = nil
	m.dropObservers()
	m.t = 0
	m.ready = [64]int64{}
	m.fpsrReady = 0
	m.lastPC = noPC
	return nil
}

// dropObservers detaches every observer, clearing the references so a
// pooled machine does not keep released timing models alive.
func (m *Machine) dropObservers() {
	clear(m.obs)
	m.obs = m.obs[:0]
	clear(m.engs)
	m.engs = m.engs[:0]
	clear(m.caches)
	m.caches = m.caches[:0]
	clear(m.others)
	m.others = m.others[:0]
	m.eng = nil
	m.itrace = nil
}

// Attach adds a timing-model observer. pipeline.Engine and cache.System
// observers are recognized by type once here and called directly in the
// run loop — a single attached engine gets the fully devirtualized fast
// path, and additional engines (multi-bus profiling attaches up to
// eight) and cache systems (a cache sweep attaches one per geometry)
// still skip the interface dispatch. Only observers of other types go
// through the generic Exec interface.
func (m *Machine) Attach(o Observer) {
	m.obs = append(m.obs, o)
	switch o := o.(type) {
	case *pipeline.Engine:
		m.engs = append(m.engs, o)
	case *cache.System:
		m.caches = append(m.caches, o)
	default:
		m.others = append(m.others, o)
	}
	if len(m.obs) == 1 && len(m.engs) == 1 {
		m.eng = m.engs[0]
	} else {
		m.eng = nil
	}
}

// EnableITrace keeps a ring buffer of the last n executed instructions
// for post-mortem dumps (n <= 0 disables it).
func (m *Machine) EnableITrace(n int) {
	if n <= 0 {
		m.itrace = nil
		return
	}
	m.itrace = telemetry.NewRing[TraceEntry](n)
}

// ITrace returns the retained instruction trace, oldest first (nil when
// tracing is not enabled).
func (m *Machine) ITrace() []TraceEntry {
	if m.itrace == nil {
		return nil
	}
	return m.itrace.Slice()
}

// RegisterMetrics publishes the machine's dynamic statistics into a
// telemetry registry as live gauges under prefix (e.g. "sim."). Reads
// happen at snapshot time, so the hot execution loop is untouched.
func (m *Machine) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	for _, f := range []struct {
		name string
		v    *int64
	}{
		{"instrs", &m.Stats.Instrs},
		{"interlocks", &m.Stats.Interlocks},
		{"loads", &m.Stats.Loads},
		{"stores", &m.Stats.Stores},
		{"pool_loads", &m.Stats.PoolLoads},
		{"fetch_words", &m.Stats.FetchWords},
		{"branches", &m.Stats.Branches},
		{"branches_taken", &m.Stats.Taken},
		{"jumps", &m.Stats.Jumps},
		{"nops", &m.Stats.Nops},
	} {
		v := f.v
		reg.RegisterFunc(prefix+f.name, func() int64 { return *v })
	}
	reg.RegisterFunc(prefix+"expected_cycles", m.ExpectedCycles)
}

func (m *Machine) fault(format string, args ...any) error {
	return &Fault{PC: m.PC, Msg: fmt.Sprintf(format, args...)}
}

// Run executes until trap 0 or maxInstrs instructions. It returns an
// error on any fault; exceeding maxInstrs is a fault (runaway program).
//
// The loop is the simulator's hot path: one indexed load into the
// shared decode table per instruction (undecodable words are sentinel
// ops in the same table, so there is no separate error lookup), the
// inline fetch-block counters and scoreboard, and direct calls into
// attached pipeline engines and cache systems. None of it allocates.
func (m *Machine) Run(maxInstrs int64) error {
	ops := m.dec.Ops
	base, shift, ibMask := m.dec.Base, m.dec.Shift, m.ib-1
	pc, npc := m.PC, m.PC+m.ib

	// The per-instruction bookkeeping — path-length counters, the
	// fetch-block counts of the 2-, 4- and 8-byte buses, the Table 4
	// class counts and the interlock scoreboard clock — lives in locals
	// for the duration of the loop and is flushed to Stats on every
	// exit, so a resumed run adds up to an uninterrupted one. The
	// scoreboard reads the table's precomputed register sources,
	// destination and result latency; the historical per-instruction
	// re-derivation from the decoded form is gone.
	instrs, nops, interlocks := m.Stats.Instrs, m.Stats.Nops, m.Stats.Interlocks
	words, dwords := m.Stats.FetchWords, m.Stats.FetchDoublewords
	// Every instruction but an immediate repeat of the previous pc is a
	// new 2-byte block, so the loop counts the rare repeats instead.
	repeats := instrs - m.Stats.FetchHalfwords
	imm := m.Stats.Imm
	t, lastPC, fpsrReady := m.t, m.lastPC, m.fpsrReady
	var runErr error

	for !m.halted {
		if instrs >= maxInstrs {
			m.PC = pc
			runErr = m.fault("instruction budget %d exhausted", maxInstrs)
			break
		}
		m.PC = pc
		// pc below base wraps the subtraction to a huge offset, so one
		// unsigned compare covers both ends of the text segment (and
		// lets the compiler drop the slice bounds check on ops).
		off := pc - base
		i := off >> shift
		if i >= uint32(len(ops)) || off&ibMask != 0 {
			runErr = m.fault("instruction fetch outside text (%#x)", pc)
			break
		}
		// Copy the micro-op out of the shared table: 24 bytes, and every
		// later field access is a provably-local read (which also keeps
		// the race detector from instrumenting each one individually).
		op := ops[i]
		if op.Flags&decode.FBad != 0 {
			runErr = m.fault("executing undecodable word: %v", m.dec.Errs[int(i)])
			break
		}
		if m.itrace != nil {
			m.itrace.Push(TraceEntry{Seq: instrs + 1, PC: pc, In: op.In})
		}
		if m.TraceW != nil {
			fmt.Fprintf(m.TraceW, "%10d  %06x  %s\n", instrs+1, pc, op.In)
		}

		instrs++
		if op.Flags&decode.FNop != 0 {
			nops++
		}
		if op.Imm != isa.ImmFits {
			imm[op.Imm]++
		}
		// Instruction traffic of a one-block fetch buffer (Table 8's
		// measure at 4 bytes): a bus requests a new block whenever
		// execution leaves the current one, sequentially or by
		// branching. pc and lastPC share a width-byte block exactly when
		// their xor is below the width, so the blocks nest: a wider one
		// changes only when every narrower one does.
		if d := pc ^ lastPC; d > 3 {
			words++
			if d > 7 {
				dwords++
			}
		} else if d == 0 {
			repeats++
		}
		lastPC = pc
		// Scoreboard: stall until all sources are ready.
		issue := t
		if op.U1 != decode.None {
			if rt := m.ready[op.U1]; rt > issue {
				issue = rt
			}
		}
		if op.U2 != decode.None {
			if rt := m.ready[op.U2]; rt > issue {
				issue = rt
			}
		}
		if op.Flags&decode.FRDSR != 0 && fpsrReady > issue {
			issue = fpsrReady
		}
		interlocks += issue - t
		t = issue + 1
		if op.Flags&decode.FFCmp != 0 {
			fpsrReady = issue + isa.LatFCmp
		}
		if op.Def != decode.None {
			m.ready[op.Def] = issue + int64(op.Lat)
		}

		target, taken, err := m.exec(op)
		if err != nil {
			runErr = err
			break
		}
		if m.eng != nil {
			m.eng.Exec(pc, op)
		} else if len(m.obs) != 0 {
			for _, e := range m.engs {
				e.Exec(pc, op)
			}
			for _, s := range m.caches {
				s.Exec(pc, op)
			}
			for _, o := range m.others {
				o.Exec(pc, op)
			}
		}
		if taken {
			pc, npc = npc, target
		} else {
			pc, npc = npc, npc+m.ib
		}
	}
	m.Stats.Instrs, m.Stats.Nops, m.Stats.Interlocks = instrs, nops, interlocks
	m.Stats.FetchHalfwords, m.Stats.FetchWords, m.Stats.FetchDoublewords = instrs-repeats, words, dwords
	m.Stats.Imm = imm
	m.t, m.lastPC, m.fpsrReady = t, lastPC, fpsrReady
	if runErr == nil {
		m.PC = pc
	}
	return runErr
}

// ExpectedCycles returns the scoreboard's ideal cycle count: one cycle per
// instruction plus interlocks (no memory-system penalties).
func (m *Machine) ExpectedCycles() int64 { return m.Stats.Instrs + m.Stats.Interlocks }

// --- register and memory access --------------------------------------------

func (m *Machine) rdG(r isa.Reg) int32 {
	if m.r0Zero && r == isa.RegCC {
		return 0
	}
	return m.GPR[r.Num()]
}

func (m *Machine) wrG(r isa.Reg, v int32) {
	if m.r0Zero && r == isa.RegCC {
		return
	}
	m.GPR[r.Num()] = v
}

func (m *Machine) checkAddr(addr, size uint32) error {
	if addr+size > uint32(len(m.Mem)) || addr+size < addr {
		return m.fault("memory access %#x size %d out of range", addr, size)
	}
	if size > 1 && addr%size != 0 {
		return m.fault("unaligned %d-byte access at %#x", size, addr)
	}
	return nil
}

func (m *Machine) load32(addr uint32) (uint32, error) {
	if err := m.checkAddr(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.Mem[addr:]), nil
}

func (m *Machine) store32(addr uint32, v uint32) error {
	if err := m.checkAddr(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.Mem[addr:], v)
	return nil
}

// ReadCString reads a NUL-terminated string from simulated memory (used by
// the puts trap and by tests).
func (m *Machine) ReadCString(addr uint32) (string, error) {
	var b []byte
	for {
		if addr >= uint32(len(m.Mem)) {
			return "", m.fault("string read out of range at %#x", addr)
		}
		c := m.Mem[addr]
		if c == 0 {
			return string(b), nil
		}
		b = append(b, c)
		addr++
		if len(b) > 1<<20 {
			return "", m.fault("unterminated string")
		}
	}
}

func f32(bits uint64) float32 { return math.Float32frombits(uint32(bits)) }
func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func b32(v float32) uint64    { return uint64(math.Float32bits(v)) }
func b64(v float64) uint64    { return math.Float64bits(v) }
func (m *Machine) notifyLoad(addr, size uint32) {
	m.Stats.Loads++
	if addr >= isa.TextBase && addr < isa.DataBase {
		m.Stats.PoolLoads++
	}
	if m.eng != nil {
		m.eng.Load(addr, size)
		return
	}
	for _, e := range m.engs {
		e.Load(addr, size)
	}
	for _, s := range m.caches {
		s.Load(addr, size)
	}
	for _, o := range m.others {
		o.Load(addr, size)
	}
}
func (m *Machine) notifyStore(addr, size uint32) {
	m.Stats.Stores++
	if addr < m.dirtyLo {
		m.dirtyLo = addr
	}
	if addr+size > m.dirtyHi {
		m.dirtyHi = addr + size
	}
	if m.eng != nil {
		m.eng.Store(addr, size)
		return
	}
	for _, e := range m.engs {
		e.Store(addr, size)
	}
	for _, s := range m.caches {
		s.Store(addr, size)
	}
	for _, o := range m.others {
		o.Store(addr, size)
	}
}
