package mcc

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// The code generator lowers allocated IR to the common assembly language,
// legalizing every operation against the target spec:
//
//   - two-address targets get operand-shuffling moves;
//   - immediates that exceed the target's fields are materialized
//     (D16: mvi / mvi+shli / literal pool; DLXe: mvi / ori / mvhi+ori);
//   - displacements that exceed the target's memory fields become address
//     arithmetic;
//   - compare conditions missing on D16 (gt-forms) swap operands, and the
//     condition register convention (r0 on D16) is honored;
//   - every control transfer gets a delay slot, filled by a scheduling
//     pass when a safe predecessor instruction exists.

// line is one emitted assembly statement with scheduling metadata.
type line struct {
	stmt    asm.Stmt
	ctl     bool // control transfer with a delay slot
	mem     bool // touches memory
	slotted bool // already placed in a delay slot: semantically pinned
	defs    []isa.Reg
	uses    []isa.Reg
}

// isInstr reports whether the line is an instruction (not a label or a
// directive).
func (l *line) isInstr() bool { return l.stmt.Kind == asm.InstrStmt }

// isNop reports whether the line is a nop (a delay slot not yet filled;
// labels, directives and pseudos carry no Op).
func (l *line) isNop() bool { return l.stmt.Op == isa.NOP }

// Statement builders: an instruction from its operation, condition and
// operands, and its operands.
func insc(op isa.Op, cond isa.Cond, args ...asm.Operand) asm.Stmt {
	return asm.Stmt{Op: op, Cond: cond, Args: args}
}

func ins(op isa.Op, args ...asm.Operand) asm.Stmt { return insc(op, isa.CondNone, args...) }

// rins builds an instruction whose operands are all registers.
func rins(op isa.Op, regs ...isa.Reg) asm.Stmt {
	s := asm.Stmt{Op: op, Args: make([]asm.Operand, len(regs))}
	for i, r := range regs {
		s.Args[i] = reg(r)
	}
	return s
}

func reg(r isa.Reg) asm.Operand { return asm.Operand{Kind: asm.RegOp, Reg: r} }

func exprOp(e asm.Expr) asm.Operand { return asm.Operand{Kind: asm.ExprOp, E: e} }

func num[T int | int32 | int64 | uint32](v T) asm.Operand { return exprOp(asm.Expr{Off: int64(v)}) }

func symOp(name string) asm.Operand { return exprOp(asm.Expr{Sym: name}) }

func mem(off int32, base isa.Reg) asm.Operand {
	return asm.Operand{Kind: asm.MemOp, Reg: base, E: asm.Expr{Off: int64(off)}}
}

func lit(e asm.Expr) asm.Operand { return asm.Operand{Kind: asm.LitOp, E: e} }

func label(name string) asm.Stmt { return asm.Stmt{Kind: asm.LabelStmt, Name: name} }

func dir(name string, args ...asm.Operand) asm.Stmt {
	return asm.Stmt{Kind: asm.DirStmt, Name: name, Args: args}
}

// dataLayout accumulates the .data section so codegen can predict gp
// displacements; the assembler independently recomputes the same layout
// (a built-in consistency check).
type fpKey struct {
	bits   uint64
	double bool
}

type dataLayout struct {
	entries []asm.Stmt // .data statements
	offsets map[string]int32
	cursor  int32
	fpPool  map[fpKey]string
	fpSeq   int

	bss        []asm.Stmt // .bss statements
	bssCursor  int32
	bssPending map[string]int32
}

func newDataLayout() *dataLayout {
	return &dataLayout{offsets: map[string]int32{}, fpPool: map[fpKey]string{}, bssPending: map[string]int32{}}
}

func (d *dataLayout) alignTo(n int32) {
	if rem := d.cursor % n; rem != 0 {
		d.entries = append(d.entries, dir(".align", num(n)))
		d.cursor += n - rem
	}
}

func (d *dataLayout) label(name string) {
	d.entries = append(d.entries, label(name))
	d.offsets[name] = d.cursor
}

func (d *dataLayout) words(vals ...int64) {
	s := dir(".word", make([]asm.Operand, len(vals))...)
	for i, v := range vals {
		s.Args[i] = num(v)
	}
	d.entries = append(d.entries, s)
	d.cursor += int32(4 * len(vals))
}

func (d *dataLayout) byteVal(v uint8) {
	d.entries = append(d.entries, dir(".byte", num(int32(v))))
	d.cursor++
}

func (d *dataLayout) asciiz(s string) {
	d.entries = append(d.entries, asm.Stmt{Kind: asm.DirStmt, Name: ".asciiz", Str: s})
	d.cursor += int32(len(s) + 1)
}

func (d *dataLayout) space(n int32) {
	d.entries = append(d.entries, dir(".space", num(n)))
	d.cursor += n
}

// bssVar reserves zero-initialized storage (not counted in binary size).
func (d *dataLayout) bssVar(name string, size, align int32) {
	if rem := d.bssCursor % align; rem != 0 {
		d.bss = append(d.bss, dir(".align", num(align)))
		d.bssCursor += align - rem
	}
	d.bss = append(d.bss, label(name), dir(".space", num(size)))
	d.offsets[name] = -1             // out of the gp window by policy; see gpOff
	d.bssPending[name] = d.bssCursor // resolved by finalizeBSS
	d.bssCursor += size
}

// finalizeBSS computes gp offsets for bss symbols (bss follows data,
// 8-aligned, matching the assembler's layout).
func (d *dataLayout) finalizeBSS() {
	base := (d.cursor + 7) &^ 7
	for name, off := range d.bssPending { //detlint:ignore rangemap map-to-map copy, order-free
		d.offsets[name] = base + off
	}
}

// fpConst interns a floating-point constant and returns its label.
func (d *dataLayout) fpConst(bits uint64, double bool) string {
	key := fpKey{bits, double}
	if l, ok := d.fpPool[key]; ok {
		return l
	}
	d.fpSeq++
	l := fmt.Sprintf(".fc%d", d.fpSeq)
	if double {
		d.alignTo(8)
		d.label(l)
		d.words(int64(uint32(bits)), int64(bits>>32))
	} else {
		d.alignTo(4)
		d.label(l)
		d.words(int64(bits))
	}
	d.fpPool[key] = l
	return l
}

// codegen emits one function.
type codegen struct {
	f     *IRFunc
	spec  *isa.Spec
	alloc *Alloc
	data  *dataLayout

	lines     []line
	slotOff   []int32
	frameSize int32
	outArgs   int32 // outgoing stack-arg bytes
	lrOff     int32 // frame offset of the saved link register (-1 = none)
	calleeOff []int32
	useCount  map[VReg]int
	retLabel  string

	scratchI [2]isa.Reg
	scratchF [2]isa.Reg

	// fusedCall maps a vreg to a function symbol when the vreg is a
	// single-use call-target address: the materialization is skipped and
	// the call emitted direct (sharing only pays off for repeated or
	// loop-resident targets).
	fusedCall map[VReg]string

	err error
}

func (cg *codegen) fail(format string, args ...any) {
	if cg.err == nil {
		cg.err = fmt.Errorf("codegen %s: %s", cg.f.Name, fmt.Sprintf(format, args...))
	}
}

// genFuncAsm compiles one IR function to assembly lines.
func genFuncAsm(f *IRFunc, spec *isa.Spec, alloc *Alloc, data *dataLayout) ([]line, error) {
	cg := &codegen{
		f: f, spec: spec, alloc: alloc, data: data,
		useCount: map[VReg]int{},
		retLabel: ".Lret_" + f.Name,
		scratchI: isa.ScratchGPRs(),
		scratchF: isa.ScratchFPRs(),
	}
	defCount := map[VReg]int{}
	for _, b := range f.Blocks {
		for i := range b.Ins {
			var buf [4]VReg
			for _, u := range b.Ins[i].uses(buf[:0]) {
				cg.useCount[u]++
			}
			if d := b.Ins[i].def(); d != NoV {
				defCount[d]++
			}
		}
	}
	// Single-use indirect call targets revert to direct calls.
	cg.fusedCall = map[VReg]string{}
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op == IAddr && in.AK == AKGlobal && in.Off == 0 {
				if _, isData := data.offsets[in.Sym]; !isData &&
					defCount[in.Dst] == 1 && cg.useCount[in.Dst] == 1 {
					cg.fusedCall[in.Dst] = in.Sym
				}
			}
		}
	}
	cg.layoutFrame()
	cg.emitLabel(f.Name)
	cg.prologue()
	for bi, b := range f.Blocks {
		if bi > 0 || blockIsBranchTarget(f, b.ID) {
			cg.emitLabel(cg.blockLabel(b.ID))
		}
		cg.genBlock(b, bi)
	}
	cg.epilogue()
	cg.lines = append(cg.lines, line{stmt: dir(".pool")})
	if cg.err != nil {
		return nil, cg.err
	}
	cg.peephole()
	cg.scheduleLoads()
	cg.schedule()
	return cg.lines, nil
}

func blockIsBranchTarget(f *IRFunc, id int) bool {
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s == id {
				return true
			}
		}
	}
	return false
}

func (cg *codegen) blockLabel(id int) string {
	return fmt.Sprintf(".L%s_%d", cg.f.Name, id)
}

// --- emission helpers --------------------------------------------------------

func (cg *codegen) emitLabel(name string) {
	cg.lines = append(cg.lines, line{stmt: label(name)})
}

func (cg *codegen) emit(s asm.Stmt, defs, uses []isa.Reg) {
	cg.lines = append(cg.lines, line{stmt: s, defs: defs, uses: uses})
}

func (cg *codegen) emitMem(s asm.Stmt, defs, uses []isa.Reg) {
	cg.lines = append(cg.lines, line{stmt: s, defs: defs, uses: uses, mem: true})
}

// emitCtl emits a control transfer plus its delay-slot nop (the scheduler
// may replace the nop).
func (cg *codegen) emitCtl(s asm.Stmt, defs, uses []isa.Reg) {
	cg.lines = append(cg.lines, line{stmt: s, defs: defs, uses: uses, ctl: true}, line{stmt: ins(isa.NOP)})
}

func rr(regs ...isa.Reg) []isa.Reg { return regs }

// --- frame layout -------------------------------------------------------------

// Frame (from sp upward):
//
//	[0, outArgs)            outgoing stack arguments
//	[outArgs, +4)           saved link register (if the function calls)
//	saved callee-saved registers (4 bytes int, 8 bytes fp)
//	spill slots and scalar locals (small, near sp: cheap displacements)
//	local arrays
//	--- frameSize (8-aligned); incoming stack args live above
func (cg *codegen) layoutFrame() {
	cg.outArgs = int32(cg.maxOutArgBytes())
	off := cg.outArgs
	if cg.f.HasCall {
		cg.lrOff = off
		off += 4
	} else {
		cg.lrOff = -1
	}
	for _, r := range cg.alloc.UsedCalleeSaved {
		off = alignI32(off, 4)
		if r.IsFPR() {
			off = alignI32(off, 8)
			cg.calleeOff = append(cg.calleeOff, off)
			off += 8
		} else {
			cg.calleeOff = append(cg.calleeOff, off)
			off += 4
		}
	}
	// Small slots first (spills, demoted scalars), then arrays.
	cg.slotOff = make([]int32, len(cg.f.Slots))
	for pass := 0; pass < 2; pass++ {
		for i, s := range cg.f.Slots {
			small := s.Size <= 8
			if (pass == 0) != small {
				continue
			}
			off = alignI32(off, int32(s.Align))
			cg.slotOff[i] = off
			off += int32(s.Size)
		}
	}
	cg.frameSize = alignI32(off, 8)
}

func alignI32(v, n int32) int32 { return (v + n - 1) &^ (n - 1) }

// maxOutArgBytes scans calls for stack-passed argument bytes.
func (cg *codegen) maxOutArgBytes() int {
	max := 0
	for _, b := range cg.f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op != ICall || in.Builtin {
				continue
			}
			ints, fps, bytes := 0, 0, 0
			for _, a := range in.Args {
				if cg.f.RegTy[a].IsFloat() {
					fps++
					if fps > isa.NumArgRegs {
						bytes = alignInt(bytes, 8) + 8
					}
				} else {
					ints++
					if ints > isa.NumArgRegs {
						bytes += 4
					}
				}
			}
			if bytes > max {
				max = bytes
			}
		}
	}
	return alignInt(max, 8)
}

func alignInt(v, n int) int { return (v + n - 1) &^ (n - 1) }
