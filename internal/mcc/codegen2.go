package mcc

import (
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
)

// --- operand access -----------------------------------------------------------

// srcReg returns the physical register holding vreg v, loading spilled
// values into scratch register `which` (0 or 1) of the appropriate class.
func (cg *codegen) srcReg(v VReg, which int) isa.Reg {
	if r := cg.alloc.Reg[v]; r != isa.NoReg {
		return r
	}
	slot := cg.alloc.SpillSlot[v]
	if slot < 0 {
		cg.fail("use of unallocated v%d", v)
		return cg.scratchI[which]
	}
	off := cg.slotOff[slot]
	if cg.f.RegTy[v].IsFloat() {
		fd := cg.scratchF[which]
		cg.loadFPFrom(fd, isa.RegSP, off, cg.f.RegTy[v] == TF64, cg.scratchI[which])
		return fd
	}
	rd := cg.scratchI[which]
	cg.loadWordInto(rd, isa.RegSP, off)
	return rd
}

// dstReg returns the register to compute vreg v into plus a commit
// function that stores spilled results back to the frame.
func (cg *codegen) dstReg(v VReg, which int) (isa.Reg, func()) {
	if r := cg.alloc.Reg[v]; r != isa.NoReg {
		return r, func() {}
	}
	slot := cg.alloc.SpillSlot[v]
	if slot < 0 {
		cg.fail("def of unallocated v%d", v)
		return cg.scratchI[which], func() {}
	}
	off := cg.slotOff[slot]
	if cg.f.RegTy[v].IsFloat() {
		fd := cg.scratchF[which]
		dbl := cg.f.RegTy[v] == TF64
		return fd, func() { cg.storeFPTo(fd, isa.RegSP, off, dbl) }
	}
	rd := cg.scratchI[which]
	return rd, func() { cg.storeWordFrom(rd, isa.RegSP, off, cg.scratchI[1-which]) }
}

// --- constants ------------------------------------------------------------------

// loadConstInto materializes a 32-bit constant, using the cheapest legal
// sequence for the target.
func (cg *codegen) loadConstInto(rd isa.Reg, v int32) {
	if cg.spec.FitsMVI(v) {
		cg.emit(ins(isa.MVI, reg(rd), num(v)), rr(rd), nil)
		return
	}
	if cg.spec.Enc == isa.EncDLXe {
		if v >= 0 && v <= 0xFFFF {
			cg.emit(ins(isa.ORI, reg(rd), reg(isa.R(0)), num(v)), rr(rd), rr(isa.R(0)))
			return
		}
		cg.emit(ins(isa.MVHI, reg(rd), num(int32(uint32(v)>>16))), rr(rd), nil)
		if lo := uint32(v) & 0xFFFF; lo != 0 {
			cg.emit(ins(isa.ORI, reg(rd), reg(rd), num(lo)), rr(rd), rr(rd))
		}
		return
	}
	// D16: shifted 9-bit form, else a literal-pool load.
	if v != 0 {
		sh := 0
		for x := v; x&1 == 0 && sh < 23; x >>= 1 {
			sh++
		}
		if base := v >> uint(sh); sh > 0 && cg.spec.FitsMVI(base) {
			cg.emit(ins(isa.MVI, reg(rd), num(base)), rr(rd), nil)
			cg.emit(ins(isa.SHLI, reg(rd), reg(rd), num(sh)), rr(rd), rr(rd))
			return
		}
	}
	cg.emitMem(ins(isa.LDC, reg(isa.RegCC), lit(asm.Expr{Off: int64(v)})), rr(isa.RegCC), nil)
	if rd != isa.RegCC {
		cg.emit(rins(isa.MV, rd, isa.RegCC), rr(rd), rr(isa.RegCC))
	}
}

// loadSymInto materializes a symbol address (+offset).
func (cg *codegen) loadSymInto(rd isa.Reg, sym string, off int32) {
	ref := asm.Expr{Sym: sym, Off: int64(off)}
	if cg.spec.Enc == isa.EncD16 {
		cg.emitMem(ins(isa.LDC, reg(isa.RegCC), lit(ref)), rr(isa.RegCC), nil)
		if rd != isa.RegCC {
			cg.emit(rins(isa.MV, rd, isa.RegCC), rr(rd), rr(isa.RegCC))
		}
		return
	}
	hi, lo := ref, ref
	hi.Mod, lo.Mod = asm.Hi16, asm.Lo16
	cg.emit(ins(isa.MVHI, reg(rd), exprOp(hi)), rr(rd), nil)
	cg.emit(ins(isa.ORI, reg(rd), reg(rd), exprOp(lo)), rr(rd), rr(rd))
}

// --- word memory helpers ---------------------------------------------------------

// fitsWordDisp reports whether a word load/store displacement encodes.
func (cg *codegen) fitsWordDisp(off int32) bool { return cg.spec.FitsMemDisp(off) }

// loadWordInto loads mem[base+off] into rd, handling over-range
// displacements by computing the address in rd itself (or scratch 1 when
// rd is the base).
func (cg *codegen) loadWordInto(rd isa.Reg, base isa.Reg, off int32) {
	if cg.fitsWordDisp(off) {
		cg.emitMem(ins(isa.LD, reg(rd), mem(off, base)), rr(rd), rr(base))
		return
	}
	t := rd
	if t == base || t.IsFPR() {
		t = cg.scratchI[1]
	}
	cg.addImmInto(t, base, off)
	cg.emitMem(ins(isa.LD, reg(rd), mem(0, t)), rr(rd), rr(t))
}

// storeWordFrom stores rs to mem[base+off]; addrScratch is used when the
// displacement is out of range (must differ from rs and base).
func (cg *codegen) storeWordFrom(rs isa.Reg, base isa.Reg, off int32, addrScratch isa.Reg) {
	if cg.fitsWordDisp(off) {
		cg.emitMem(ins(isa.ST, reg(rs), mem(off, base)), nil, rr(rs, base))
		return
	}
	if !addrScratch.Valid() {
		cg.fail("no free scratch for store displacement %d", off)
		return
	}
	cg.addImmInto(addrScratch, base, off)
	cg.emitMem(ins(isa.ST, reg(rs), mem(0, addrScratch)), nil, rr(rs, addrScratch))
}

// addImmInto computes rd = base + imm with target-legal sequences.
func (cg *codegen) addImmInto(rd, base isa.Reg, imm int32) {
	if imm == 0 {
		cg.moveInt(rd, base)
		return
	}
	three := cg.spec.ThreeAddress
	switch {
	case imm >= 0 && cg.spec.FitsALUImm(imm):
		if three || rd == base {
			cg.emit(ins(isa.ADDI, reg(rd), reg(base), num(imm)), rr(rd), rr(base))
		} else {
			cg.moveInt(rd, base)
			cg.emit(ins(isa.ADDI, reg(rd), reg(rd), num(imm)), rr(rd), rr(rd))
		}
	case imm < 0 && cg.spec.FitsALUImm(-imm):
		if three || rd == base {
			cg.emit(ins(isa.SUBI, reg(rd), reg(base), num(-imm)), rr(rd), rr(base))
		} else {
			cg.moveInt(rd, base)
			cg.emit(ins(isa.SUBI, reg(rd), reg(rd), num(-imm)), rr(rd), rr(rd))
		}
	default:
		if rd == base {
			// rd = rd + big: materialize into scratch and add.
			s := cg.scratchI[1]
			if s == rd {
				s = cg.scratchI[0]
			}
			cg.loadConstInto(s, imm)
			cg.emitAddReg(rd, rd, s)
			return
		}
		cg.loadConstInto(rd, imm)
		cg.emitAddReg(rd, rd, base)
	}
}

func (cg *codegen) emitAddReg(rd, ra, rb isa.Reg) {
	if cg.spec.ThreeAddress {
		cg.emit(rins(isa.ADD, rd, ra, rb), rr(rd), rr(ra, rb))
		return
	}
	if rd == ra {
		cg.emit(rins(isa.ADD, rd, rd, rb), rr(rd), rr(rd, rb))
		return
	}
	if rd == rb { // commutative
		cg.emit(rins(isa.ADD, rd, rd, ra), rr(rd), rr(rd, ra))
		return
	}
	cg.moveInt(rd, ra)
	cg.emit(rins(isa.ADD, rd, rd, rb), rr(rd), rr(rd, rb))
}

func (cg *codegen) moveInt(rd, rs isa.Reg) {
	if rd != rs {
		cg.emit(rins(isa.MV, rd, rs), rr(rd), rr(rs))
	}
}

func (cg *codegen) moveFP(rd, rs isa.Reg) {
	if rd != rs {
		cg.emit(rins(isa.FMV, rd, rs), rr(rd), rr(rs))
	}
}

// loadFPFrom loads a float/double at base+off into FPR fd via integer
// scratch is.
func (cg *codegen) loadFPFrom(fd isa.Reg, base isa.Reg, off int32, double bool, is isa.Reg) {
	if double {
		if cg.fitsWordDisp(off) && cg.fitsWordDisp(off+4) {
			cg.emitMem(ins(isa.LD, reg(is), mem(off, base)), rr(is), rr(base))
			cg.emit(rins(isa.MVFL, fd, is), rr(fd), rr(is))
			cg.emitMem(ins(isa.LD, reg(is), mem(off+4, base)), rr(is), rr(base))
			cg.emit(rins(isa.MVFH, fd, is), rr(fd), rr(is))
			return
		}
		// Compute the address into the other integer scratch.
		a := cg.otherScratchI(is)
		cg.addImmInto(a, base, off)
		cg.emitMem(ins(isa.LD, reg(is), mem(0, a)), rr(is), rr(a))
		cg.emit(rins(isa.MVFL, fd, is), rr(fd), rr(is))
		cg.emitMem(ins(isa.LD, reg(is), mem(4, a)), rr(is), rr(a))
		cg.emit(rins(isa.MVFH, fd, is), rr(fd), rr(is))
		return
	}
	cg.loadWordInto(is, base, off)
	cg.emit(rins(isa.MVFL, fd, is), rr(fd), rr(is))
}

// storeFPTo stores FPR fs to base+off via the integer scratches.
func (cg *codegen) storeFPTo(fs isa.Reg, base isa.Reg, off int32, double bool) {
	is := cg.scratchI[0]
	if double {
		if cg.fitsWordDisp(off) && cg.fitsWordDisp(off+4) {
			cg.emit(rins(isa.MFFL, is, fs), rr(is), rr(fs))
			cg.emitMem(ins(isa.ST, reg(is), mem(off, base)), nil, rr(is, base))
			cg.emit(rins(isa.MFFH, is, fs), rr(is), rr(fs))
			cg.emitMem(ins(isa.ST, reg(is), mem(off+4, base)), nil, rr(is, base))
			return
		}
		a := cg.otherScratchI(is)
		cg.addImmInto(a, base, off)
		cg.emit(rins(isa.MFFL, is, fs), rr(is), rr(fs))
		cg.emitMem(ins(isa.ST, reg(is), mem(0, a)), nil, rr(is, a))
		cg.emit(rins(isa.MFFH, is, fs), rr(is), rr(fs))
		cg.emitMem(ins(isa.ST, reg(is), mem(4, a)), nil, rr(is, a))
		return
	}
	cg.emit(rins(isa.MFFL, is, fs), rr(is), rr(fs))
	cg.storeWordFrom(is, base, off, cg.otherScratchI(is))
}

func (cg *codegen) otherScratchI(r isa.Reg) isa.Reg {
	if r == cg.scratchI[0] {
		return cg.scratchI[1]
	}
	return cg.scratchI[0]
}

// --- prologue / epilogue ---------------------------------------------------------

func (cg *codegen) prologue() {
	if cg.frameSize > 0 {
		cg.addImmInto(isa.RegSP, isa.RegSP, -cg.frameSize)
	}
	if cg.lrOff >= 0 {
		cg.storeWordFrom(isa.RegLink, isa.RegSP, cg.lrOff, cg.scratchI[1])
	}
	for i, r := range cg.alloc.UsedCalleeSaved {
		if r.IsFPR() {
			cg.storeFPTo(r, isa.RegSP, cg.calleeOff[i], true)
		} else {
			cg.storeWordFrom(r, isa.RegSP, cg.calleeOff[i], cg.scratchI[1])
		}
	}
	cg.paramMoves()
}

func (cg *codegen) epilogue() {
	cg.emitLabel(cg.retLabel)
	for i, r := range cg.alloc.UsedCalleeSaved {
		if r.IsFPR() {
			cg.loadFPFrom(r, isa.RegSP, cg.calleeOff[i], true, cg.scratchI[0])
		} else {
			cg.loadWordInto(r, isa.RegSP, cg.calleeOff[i])
		}
	}
	if cg.lrOff >= 0 {
		cg.loadWordInto(isa.RegLink, isa.RegSP, cg.lrOff)
	}
	if cg.frameSize > 0 {
		cg.addImmInto(isa.RegSP, isa.RegSP, cg.frameSize)
	}
	cg.emitCtl(asm.Stmt{Pseudo: asm.Ret}, nil, rr(isa.RegLink))
}

// paramMoves moves incoming arguments (registers and stack) to their
// allocated homes, as one parallel move.
func (cg *codegen) paramMoves() {
	var moves []pmove
	ints, fps, stackOff := 0, 0, cg.frameSize
	for i, pv := range cg.f.Params {
		fp := cg.f.RegTy[pv].IsFloat()
		double := cg.f.RegTy[pv] == TF64
		var src isa.Reg = isa.NoReg
		var fromStack int32 = -1
		if fp {
			fps++
			if fps <= isa.NumArgRegs {
				src = isa.FArgReg(fps - 1)
			} else {
				stackOff = alignI32(stackOff, 8)
				fromStack = stackOff
				stackOff += 8
			}
		} else {
			ints++
			if ints <= isa.NumArgRegs {
				src = isa.ArgReg(ints - 1)
			} else {
				fromStack = stackOff
				stackOff += 4
			}
		}
		dstR := cg.alloc.Reg[pv]
		spill := cg.alloc.SpillSlot[pv]
		if dstR == isa.NoReg && spill < 0 {
			continue // parameter never used
		}
		moves = append(moves, pmove{
			src: src, stackOff: fromStack, dst: dstR,
			spillOff: cg.spillOffOr(spill), fp: fp, double: double, idx: i,
		})
	}
	cg.resolveParallel(moves)
}

func (cg *codegen) spillOffOr(slot int) int32 {
	if slot < 0 {
		return -1
	}
	return cg.slotOff[slot]
}

// pmove is one element of a parallel move: from a register or stack
// location into a register or spill slot.
type pmove struct {
	src      isa.Reg // NoReg when the source is a stack location
	stackOff int32   // incoming-stack source offset (-1 = none)
	dst      isa.Reg // NoReg when the destination is a spill slot
	spillOff int32   // spill destination offset (-1 = none)
	fp       bool
	double   bool
	idx      int
}

// resolveParallel emits a set of moves that must appear to happen
// simultaneously: it orders them so no source is clobbered before it is
// read, breaking register cycles with a scratch register.
func (cg *codegen) resolveParallel(moves []pmove) {
	pending := make([]pmove, len(moves))
	copy(pending, moves)

	emitOne := func(m pmove) {
		switch {
		case m.spillOff >= 0 && m.src != isa.NoReg: // reg -> slot
			if m.fp {
				cg.storeFPTo(m.src, isa.RegSP, m.spillOff, m.double)
			} else {
				cg.storeWordFrom(m.src, isa.RegSP, m.spillOff, cg.scratchI[1])
			}
		case m.spillOff >= 0: // stack -> slot (via scratch)
			if m.fp {
				fs := cg.scratchF[0]
				cg.loadFPFrom(fs, isa.RegSP, m.stackOff, m.double, cg.scratchI[0])
				cg.storeFPTo(fs, isa.RegSP, m.spillOff, m.double)
			} else {
				s := cg.scratchI[0]
				cg.loadWordInto(s, isa.RegSP, m.stackOff)
				cg.storeWordFrom(s, isa.RegSP, m.spillOff, cg.scratchI[1])
			}
		case m.src == isa.NoReg: // stack -> reg
			if m.fp {
				cg.loadFPFrom(m.dst, isa.RegSP, m.stackOff, m.double, cg.scratchI[0])
			} else {
				cg.loadWordInto(m.dst, isa.RegSP, m.stackOff)
			}
		default: // reg -> reg
			if m.fp {
				cg.moveFP(m.dst, m.src)
			} else {
				cg.moveInt(m.dst, m.src)
			}
		}
	}

	// Phase 1: moves that write no register (spill stores) only read;
	// emitting them before anything writes keeps every source intact.
	out := pending[:0]
	for _, m := range pending {
		if m.dst == isa.NoReg {
			emitOne(m)
			continue
		}
		out = append(out, m)
	}
	pending = out

	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			// m writes m.dst; legal when no other pending move still
			// reads m.dst.
			blocked := false
			for j, o := range pending {
				if j != i && o.src == m.dst && o.src != isa.NoReg {
					blocked = true
					break
				}
			}
			if !blocked {
				emitOne(m)
				pending = append(pending[:i], pending[i+1:]...)
				progressed = true
				i--
			}
		}
		if progressed {
			continue
		}
		// Pure register cycle: rotate through scratch.
		m := pending[0]
		scratch := cg.scratchI[0]
		if m.fp {
			scratch = cg.scratchF[0]
		}
		if m.fp {
			cg.moveFP(scratch, m.src)
		} else {
			cg.moveInt(scratch, m.src)
		}
		pending[0].src = scratch
	}
}

// --- calls ------------------------------------------------------------------------

func (cg *codegen) genCallIns(in *Ins) {
	if in.Builtin {
		cg.genBuiltin(in)
		return
	}

	// Indirect call target (D16 lowering) moves to r0 first: argument
	// moves may overwrite any allocatable register, but never r0.
	fusedSym, fused := "", false
	if in.A != NoV {
		fusedSym, fused = cg.fusedCall[in.A]
		if !fused {
			target := cg.srcReg(in.A, 0)
			cg.moveInt(isa.RegCC, target)
		}
	}

	// Stack arguments first (their stores read sources before any
	// argument registers are redefined).
	ints, fps, stackOff := 0, 0, int32(0)
	var moves []pmove
	for _, a := range in.Args {
		fp := cg.f.RegTy[a].IsFloat()
		double := cg.f.RegTy[a] == TF64
		if fp {
			fps++
			if fps > isa.NumArgRegs {
				stackOff = alignI32(stackOff, 8)
				src := cg.srcReg(a, 0)
				cg.storeFPTo(src, isa.RegSP, stackOff, double)
				stackOff += 8
				continue
			}
			moves = append(moves, cg.argMove(a, isa.FArgReg(fps-1), true, double))
		} else {
			ints++
			if ints > isa.NumArgRegs {
				src := cg.srcReg(a, 0)
				cg.storeWordFrom(src, isa.RegSP, stackOff, cg.scratchI[1])
				stackOff += 4
				continue
			}
			moves = append(moves, cg.argMove(a, isa.ArgReg(ints-1), false, double))
		}
	}
	cg.resolveParallel(moves)

	// The call clobbers caller-saved registers and the link register;
	// record argument registers as uses so the delay-slot scheduler never
	// hoists an argument-clobbering instruction into the slot.
	uses := []isa.Reg{}
	for _, m := range moves {
		uses = append(uses, m.dst)
	}
	if in.A != NoV && !fused {
		// Indirect call (D16 lowering): the target address was staged in
		// r0 before the argument moves.
		uses = append(uses, isa.RegCC)
		cg.lines = append(cg.lines, line{
			stmt: rins(isa.JL, isa.RegCC), ctl: true, mem: true,
			defs: []isa.Reg{isa.RegLink}, uses: uses,
		})
	} else {
		sym := in.Sym
		if fused {
			sym = fusedSym
		}
		defs := []isa.Reg{isa.RegLink, isa.RegCC} // D16 call goes through r0
		cg.lines = append(cg.lines, line{
			stmt: asm.Stmt{Pseudo: asm.Call, Args: []asm.Operand{symOp(sym)}}, ctl: true, mem: true,
			defs: defs, uses: uses,
		})
	}
	cg.lines = append(cg.lines, line{stmt: ins(isa.NOP)})

	if in.Dst != NoV {
		rd, commit := cg.dstReg(in.Dst, 0)
		if cg.f.RegTy[in.Dst].IsFloat() {
			cg.moveFP(rd, isa.FRetReg)
		} else {
			cg.moveInt(rd, isa.RetReg)
		}
		commit()
	}
}

// argMove builds the parallel-move element for one register argument.
func (cg *codegen) argMove(a VReg, dst isa.Reg, fp, double bool) pmove {
	if r := cg.alloc.Reg[a]; r != isa.NoReg {
		return pmove{src: r, stackOff: -1, dst: dst, spillOff: -1, fp: fp, double: double}
	}
	// Spilled argument: loaded straight into the target register (reads
	// no register, so it participates as a stack source).
	return pmove{src: isa.NoReg, stackOff: cg.slotOff[cg.alloc.SpillSlot[a]],
		dst: dst, spillOff: -1, fp: fp, double: double}
}

var builtinTraps = map[string]int{
	"print_int":    1,
	"print_char":   2,
	"print_str":    3,
	"print_double": 4,
}

func (cg *codegen) genBuiltin(in *Ins) {
	code, ok := builtinTraps[in.Sym]
	if !ok {
		cg.fail("unknown builtin %q", in.Sym)
		return
	}
	a := in.Args[0]
	if cg.f.RegTy[a].IsFloat() {
		src := cg.srcReg(a, 0)
		cg.moveFP(isa.FRetReg, src)
	} else {
		src := cg.srcReg(a, 0)
		cg.moveInt(isa.RetReg, src)
	}
	cg.emit(ins(isa.TRAP, num(code)), nil, rr(isa.RetReg, isa.FRetReg))
}

// fbits returns the bit pattern of an FP constant at the given precision.
func fbits(v float64, double bool) uint64 {
	if double {
		return math.Float64bits(v)
	}
	return uint64(math.Float32bits(float32(v)))
}
