package mcc

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// genBlock lowers one basic block; bi is the block's position in layout
// order (for fall-through decisions).
func (cg *codegen) genBlock(b *Block, bi int) {
	nextID := -1
	if bi+1 < len(cg.f.Blocks) {
		nextID = cg.f.Blocks[bi+1].ID
	}
	for i := 0; i < len(b.Ins); i++ {
		in := &b.Ins[i]

		// Compare/branch fusion: a compare whose sole consumer is the
		// immediately-following conditional branch never materializes its
		// boolean.
		if (in.Op == ICmp || in.Op == IFCmp) && i+1 < len(b.Ins) {
			nxt := &b.Ins[i+1]
			if nxt.Op == ICondBr && nxt.A == in.Dst && cg.useCount[in.Dst] == 1 {
				cg.genCondBr(in, nxt, nextID)
				i++
				continue
			}
		}
		cg.genIns(in, nextID)
	}
}

func (cg *codegen) genIns(in *Ins, nextID int) {
	switch in.Op {
	case IConst:
		if in.Ty == TI32 {
			rd, commit := cg.dstReg(in.Dst, 0)
			cg.loadConstInto(rd, int32(in.Imm))
			commit()
			return
		}
		cg.genFPConst(in)

	case IMov:
		if cg.f.RegTy[in.Dst].IsFloat() {
			src := cg.srcReg(in.A, 1)
			rd, commit := cg.dstReg(in.Dst, 0)
			cg.moveFP(rd, src)
			commit()
		} else {
			src := cg.srcReg(in.A, 1)
			rd, commit := cg.dstReg(in.Dst, 0)
			cg.moveInt(rd, src)
			commit()
		}

	case IAdd, ISub, IAnd, IOr, IXor, IShl, IShr, ISra:
		cg.genIntOp(in)

	case INeg:
		a := cg.srcReg(in.A, 0)
		rd, commit := cg.dstReg(in.Dst, 0)
		if cg.spec.Enc == isa.EncD16 {
			cg.moveInt(rd, a)
			cg.emit(rins(isa.NEG, rd), rr(rd), rr(rd))
		} else {
			cg.emit(rins(isa.SUB, rd, isa.R(0), a), rr(rd), rr(isa.R(0), a))
		}
		commit()

	case INot:
		a := cg.srcReg(in.A, 0)
		rd, commit := cg.dstReg(in.Dst, 0)
		if cg.spec.Enc == isa.EncD16 {
			cg.moveInt(rd, a)
			cg.emit(rins(isa.INV, rd), rr(rd), rr(rd))
		} else {
			// ~a == -a - 1 (avoids needing a -1 materialization).
			cg.emit(rins(isa.SUB, rd, isa.R(0), a), rr(rd), rr(isa.R(0), a))
			cg.emit(ins(isa.SUBI, reg(rd), reg(rd), num(1)), rr(rd), rr(rd))
		}
		commit()

	case ICmp:
		rd, commit := cg.dstReg(in.Dst, 0)
		cg.emitIntCmp(in, rd)
		commit()

	case IFCmp:
		rd, commit := cg.dstReg(in.Dst, 0)
		cg.emitFloatCmp(in, rd)
		commit()

	case IFAdd, IFSub, IFMul, IFDiv:
		cg.genFPOp(in)

	case IFNeg:
		a := cg.srcReg(in.A, 0)
		rd, commit := cg.dstReg(in.Dst, 0)
		op := fpOp(in.Ty, isa.FNEGS, isa.FNEGD)
		if cg.spec.ThreeAddress {
			cg.emit(rins(op, rd, a), rr(rd), rr(a))
		} else {
			cg.moveFP(rd, a)
			cg.emit(rins(op, rd, rd), rr(rd), rr(rd))
		}
		commit()

	case ICvt:
		cg.genCvt(in)

	case ILoad:
		cg.genLoad(in)

	case IStore:
		cg.genStore(in)

	case IAddr:
		if _, ok := cg.fusedCall[in.Dst]; ok {
			return // materialization fused into the call site
		}
		rd, commit := cg.dstReg(in.Dst, 0)
		cg.genAddrInto(rd, in)
		commit()

	case ICall:
		cg.genCallIns(in)

	case IRet:
		if in.A != NoV {
			if cg.f.RegTy[in.A].IsFloat() {
				src := cg.srcReg(in.A, 0)
				cg.moveFP(isa.FRetReg, src)
			} else {
				src := cg.srcReg(in.A, 0)
				cg.moveInt(isa.RetReg, src)
			}
		}
		cg.emitCtl(ins(isa.BR, symOp(cg.retLabel)), nil, nil)

	case IBr:
		if int(in.Imm) != nextID {
			cg.emitCtl(ins(isa.BR, symOp(cg.blockLabel(int(in.Imm)))), nil, nil)
		}

	case ICondBr:
		cg.genCondBr(nil, in, nextID)

	default:
		cg.fail("unlowered IR op %s", in.Op)
	}
}

// fpOp picks an FP operation's single- or double-precision form.
func fpOp(t Ty, single, double isa.Op) isa.Op {
	if t == TF64 {
		return double
	}
	return single
}

// --- integer ALU ----------------------------------------------------------------

type opInfo struct {
	reg  isa.Op
	imm  isa.Op
	comm bool
	kind immKind
}

type immKind uint8

const (
	immALU immKind = iota // addi/subi range (spec.ALUImmBits)
	immShift
	immLogical // andi/ori/xori (16-bit, DLXe only)
)

var intOps = map[IOp]opInfo{
	IAdd: {isa.ADD, isa.ADDI, true, immALU},
	ISub: {isa.SUB, isa.SUBI, false, immALU},
	IAnd: {isa.AND, isa.ANDI, true, immLogical},
	IOr:  {isa.OR, isa.ORI, true, immLogical},
	IXor: {isa.XOR, isa.XORI, true, immLogical},
	IShl: {isa.SHL, isa.SHLI, false, immShift},
	IShr: {isa.SHR, isa.SHRI, false, immShift},
	ISra: {isa.SHRA, isa.SHRAI, false, immShift},
}

func (cg *codegen) immFits(kind immKind, v int64) bool {
	switch kind {
	case immALU:
		return v >= 0 && cg.spec.FitsALUImm(int32(v))
	case immShift:
		return v >= 0 && v <= 31
	case immLogical:
		return cg.spec.HasLogicalImm && v >= 0 && v <= 0xFFFF
	}
	return false
}

func (cg *codegen) genIntOp(in *Ins) {
	info := intOps[in.Op]
	a := cg.srcReg(in.A, 0)
	rd, commit := cg.dstReg(in.Dst, 0)
	defer commit()

	if in.HasBImm {
		v := in.BImm
		op, imm := info.imm, v
		// add with a negative immediate becomes subtract (and vice versa).
		if in.Op == IAdd && v < 0 && cg.immFits(immALU, -v) {
			op, imm = isa.SUBI, -v
		} else if in.Op == ISub && v < 0 && cg.immFits(immALU, -v) {
			op, imm = isa.ADDI, -v
		} else if !cg.immFits(info.kind, v) {
			// Immediate does not fit this target: materialize.
			s := cg.scratchI[1]
			cg.loadConstInto(s, int32(v))
			cg.emitIntRR(info, rd, a, s)
			return
		} else if in.Op == ISub && cg.immFits(immALU, v) {
			op, imm = isa.SUBI, v
		}
		if cg.spec.ThreeAddress || rd == a {
			cg.emit(ins(op, reg(rd), reg(a), num(imm)), rr(rd), rr(a))
		} else {
			cg.moveInt(rd, a)
			cg.emit(ins(op, reg(rd), reg(rd), num(imm)), rr(rd), rr(rd))
		}
		return
	}
	b := cg.srcReg(in.B, 1)
	cg.emitIntRR(info, rd, a, b)
}

// emitIntRR emits a register-register ALU op with two-address
// legalization.
func (cg *codegen) emitIntRR(info opInfo, rd, a, b isa.Reg) {
	if cg.spec.ThreeAddress {
		cg.emit(rins(info.reg, rd, a, b), rr(rd), rr(a, b))
		return
	}
	switch {
	case rd == a:
		cg.emit(rins(info.reg, rd, rd, b), rr(rd), rr(rd, b))
	case rd == b && info.comm:
		cg.emit(rins(info.reg, rd, rd, a), rr(rd), rr(rd, a))
	case rd == b:
		// Non-commutative with rd == b: preserve b in a scratch register
		// distinct from a and rd (a occupies at most one scratch; rd == b
		// is never a scratch, since spilled destinations use scratch 0
		// and spilled B operands load into scratch 1).
		s := cg.scratchI[0]
		if s == a || s == rd {
			s = cg.scratchI[1]
		}
		if s == a || s == rd {
			cg.fail("no scratch for two-address operand shuffle")
		}
		cg.moveInt(s, b)
		cg.moveInt(rd, a)
		cg.emit(rins(info.reg, rd, rd, s), rr(rd), rr(rd, s))
	default:
		cg.moveInt(rd, a)
		cg.emit(rins(info.reg, rd, rd, b), rr(rd), rr(rd, b))
	}
}

// --- compares ---------------------------------------------------------------------

// emitIntCmp emits an integer compare whose boolean lands in rd.
func (cg *codegen) emitIntCmp(in *Ins, rd isa.Reg) {
	cond := in.Cond
	a := cg.srcReg(in.A, 0)

	if cg.spec.R0IsCC {
		// D16: destination is architecturally r0; gt-forms swap operands.
		// Immediate operands exist only on the D16+ variant (8-bit
		// compare-equal).
		if in.HasBImm && cg.spec.CmpImm8 && cond == isa.EQ &&
			in.BImm >= 0 && in.BImm <= 255 {
			cg.emit(insc(isa.CMP, isa.EQ, reg(isa.RegCC), reg(a), num(in.BImm)),
				rr(isa.RegCC), rr(a))
			if rd != isa.RegCC {
				cg.moveInt(rd, isa.RegCC)
			}
			return
		}
		var b isa.Reg
		if in.HasBImm {
			b = cg.scratchI[1]
			cg.loadConstInto(b, int32(in.BImm))
		} else {
			b = cg.srcReg(in.B, 1)
		}
		if !cond.D16Legal() {
			cond = cond.Swapped()
			a, b = b, a
		}
		cg.emit(insc(isa.CMP, cond, reg(isa.RegCC), reg(a), reg(b)),
			rr(isa.RegCC), rr(a, b))
		if rd != isa.RegCC {
			cg.moveInt(rd, isa.RegCC)
		}
		return
	}

	if in.HasBImm {
		if cg.spec.HasCmpImm && in.BImm >= -32768 && in.BImm <= 32767 {
			cg.emit(insc(isa.CMP, cond, reg(rd), reg(a), num(in.BImm)),
				rr(rd), rr(a))
			return
		}
		b := cg.scratchI[1]
		cg.loadConstInto(b, int32(in.BImm))
		cg.emit(insc(isa.CMP, cond, reg(rd), reg(a), reg(b)), rr(rd), rr(a, b))
		return
	}
	b := cg.srcReg(in.B, 1)
	if !cg.spec.HasGTConds && !cond.D16Legal() {
		cond = cond.Swapped()
		a, b = b, a
	}
	cg.emit(insc(isa.CMP, cond, reg(rd), reg(a), reg(b)), rr(rd), rr(a, b))
}

// emitFloatCmp emits an FP compare whose boolean lands in rd. It returns
// true when the produced value is INVERTED (only happens for D16's
// missing ne condition when materializing a value; fused callers flip the
// branch instead).
func (cg *codegen) emitFloatCmp(in *Ins, rd isa.Reg) {
	inverted := cg.emitFCmpStatus(in)
	cg.emit(rins(isa.RDSR, rd), rr(rd), nil)
	if inverted {
		// rd = 1 - rd (values are 0/1).
		cg.emit(ins(isa.SUBI, reg(rd), reg(rd), num(1)), rr(rd), rr(rd))
		if cg.spec.Enc == isa.EncD16 {
			cg.emit(rins(isa.NEG, rd), rr(rd), rr(rd))
		} else {
			cg.emit(rins(isa.SUB, rd, isa.R(0), rd), rr(rd), rr(isa.R(0), rd))
		}
	}
}

// emitFCmpStatus emits the fcmp instruction (writing the FP status
// register) and reports whether the status is the INVERSE of the wanted
// condition.
func (cg *codegen) emitFCmpStatus(in *Ins) bool {
	cond := in.Cond
	a := cg.srcReg(in.A, 0)
	b := cg.srcReg(in.B, 1)
	inverted := false
	switch cond {
	case isa.GT, isa.GE:
		cond = cond.Swapped()
		a, b = b, a
	}
	if cg.spec.Enc == isa.EncD16 && cond == isa.NE {
		cond = isa.EQ
		inverted = true
	}
	cg.emit(insc(fpOp(in.Ty, isa.FCMPS, isa.FCMPD), cond, reg(a), reg(b)), nil, rr(a, b))
	return inverted
}

// --- conditional branches ------------------------------------------------------------

// genCondBr emits a conditional branch, optionally fused with the compare
// that produces its condition.
func (cg *codegen) genCondBr(cmp *Ins, br *Ins, nextID int) {
	thenID, elseID := int(br.Imm), int(br.Imm2)

	// Compute the condition register and whether its sense is inverted.
	var cond isa.Reg
	inverted := false
	switch {
	case cmp == nil:
		v := cg.srcReg(br.A, 0)
		if cg.spec.R0IsCC {
			cg.moveInt(isa.RegCC, v)
			cond = isa.RegCC
		} else {
			cond = v
		}
	case cmp.Op == ICmp:
		cond = cg.cmpTargetReg(cmp)
		cg.emitIntCmp(cmp, cond)
	default: // IFCmp
		inverted = cg.emitFCmpStatus(cmp)
		cond = cg.cmpTargetReg(cmp)
		cg.emit(rins(isa.RDSR, cond), rr(cond), nil)
	}

	brOn := func(takenIfNonzero bool, target string) {
		op := isa.BZ
		if takenIfNonzero != inverted {
			op = isa.BNZ
		}
		cg.emitCtl(ins(op, reg(cond), symOp(target)), nil, rr(cond))
	}

	switch {
	case elseID == nextID:
		brOn(true, cg.blockLabel(thenID))
	case thenID == nextID:
		brOn(false, cg.blockLabel(elseID))
	default:
		brOn(true, cg.blockLabel(thenID))
		cg.emitCtl(ins(isa.BR, symOp(cg.blockLabel(elseID))), nil, nil)
	}
}

// cmpTargetReg picks the register a fused compare's boolean lives in:
// architecturally r0 on D16, the (dead) allocated register or a scratch
// on DLXe.
func (cg *codegen) cmpTargetReg(cmp *Ins) isa.Reg {
	if cg.spec.R0IsCC {
		return isa.RegCC
	}
	if r := cg.alloc.Reg[cmp.Dst]; r != isa.NoReg {
		return r
	}
	return cg.scratchI[1]
}

// --- FP arithmetic -----------------------------------------------------------------

func (cg *codegen) genFPOp(in *Ins) {
	ops := map[IOp][2]isa.Op{IFAdd: {isa.FADDS, isa.FADDD}, IFSub: {isa.FSUBS, isa.FSUBD},
		IFMul: {isa.FMULS, isa.FMULD}, IFDiv: {isa.FDIVS, isa.FDIVD}}[in.Op]
	comm := in.Op == IFAdd || in.Op == IFMul
	a := cg.srcReg(in.A, 0)
	b := cg.srcReg(in.B, 1)
	rd, commit := cg.dstReg(in.Dst, 0)
	defer commit()
	op := fpOp(in.Ty, ops[0], ops[1])

	if cg.spec.ThreeAddress {
		cg.emit(rins(op, rd, a, b), rr(rd), rr(a, b))
		return
	}
	switch {
	case rd == a:
		cg.emit(rins(op, rd, rd, b), rr(rd), rr(rd, b))
	case rd == b && comm:
		cg.emit(rins(op, rd, rd, a), rr(rd), rr(rd, a))
	case rd == b:
		s := cg.scratchF[0]
		if s == a || s == rd {
			s = cg.scratchF[1]
		}
		if s == a || s == rd {
			cg.fail("no FP scratch for two-address operand shuffle")
		}
		cg.moveFP(s, b)
		cg.moveFP(rd, a)
		cg.emit(rins(op, rd, rd, s), rr(rd), rr(rd, s))
	default:
		cg.moveFP(rd, a)
		cg.emit(rins(op, rd, rd, b), rr(rd), rr(rd, b))
	}
}

// cvtOps maps a (source, destination) type pair to its conversion.
var cvtOps = map[[2]Ty]isa.Op{
	{TI32, TF32}: isa.CVTSISF, {TI32, TF64}: isa.CVTSIDF, {TF32, TF64}: isa.CVTSFDF,
	{TF64, TF32}: isa.CVTDFSF, {TF64, TI32}: isa.CVTDFSI, {TF32, TI32}: isa.CVTSFSI,
}

func (cg *codegen) genCvt(in *Ins) {
	name, ok := cvtOps[[2]Ty{in.SrcTy, in.Ty}]
	if !ok {
		// Same-type conversion degenerates to a move.
		cg.genIns(&Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: in.A}, -1)
		return
	}
	a := cg.srcReg(in.A, 0)
	rd, commit := cg.dstReg(in.Dst, 0)
	cg.emit(rins(name, rd, a), rr(rd), rr(a))
	commit()
}

// --- memory ------------------------------------------------------------------------

// resolveAddr returns the base register and displacement for a load or
// store (loading a spilled base into scratch 1).
func (cg *codegen) resolveAddr(in *Ins, baseIsB bool) (isa.Reg, int32) {
	switch in.AK {
	case AKSlot:
		return isa.RegSP, cg.slotOff[in.Slot] + in.Off
	case AKGlobal:
		off, ok := cg.data.offsets[in.Sym]
		if !ok {
			cg.fail("unknown global %q", in.Sym)
			return isa.RegGP, 0
		}
		return isa.RegGP, off + in.Off
	default:
		v := in.A
		if baseIsB {
			v = in.B
		}
		return cg.srcReg(v, 1), in.Off
	}
}

func (cg *codegen) genLoad(in *Ins) {
	base, off := cg.resolveAddr(in, false)
	rd, commit := cg.dstReg(in.Dst, 0)
	defer commit()
	switch {
	case in.Ty == TF64:
		cg.loadFPFrom(rd, base, off, true, cg.scratchI[0])
	case in.Ty == TF32:
		cg.loadFPFrom(rd, base, off, false, cg.scratchI[0])
	case in.Size == 4:
		cg.loadWordInto(rd, base, off)
	default:
		cg.loadSubword(rd, base, off, in.Size, in.Signed)
	}
}

func (cg *codegen) loadSubword(rd, base isa.Reg, off int32, size uint8, signed bool) {
	var name isa.Op
	switch {
	case size == 1 && signed:
		name = isa.LDB
	case size == 1:
		name = isa.LDBU
	case size == 2 && signed:
		name = isa.LDH
	default:
		name = isa.LDHU
	}
	if cg.spec.SubwordDisp && off >= -32768 && off <= 32767 {
		cg.emitMem(ins(name, reg(rd), mem(off, base)), rr(rd), rr(base))
		return
	}
	if off == 0 {
		cg.emitMem(ins(name, reg(rd), mem(0, base)), rr(rd), rr(base))
		return
	}
	t := rd
	if t == base {
		t = cg.scratchI[1]
	}
	cg.addImmInto(t, base, off)
	cg.emitMem(ins(name, reg(rd), mem(0, t)), rr(rd), rr(t))
}

func (cg *codegen) genStore(in *Ins) {
	base, off := cg.resolveAddr(in, true)
	switch {
	case in.Ty == TF64, in.Ty == TF32:
		fs := cg.srcReg(in.A, 0)
		cg.storeFPTo(fs, base, off, in.Ty == TF64)
	case in.Size == 4:
		rs := cg.srcReg(in.A, 0)
		cg.storeWordFrom(rs, base, off, cg.storeScratch(rs, base))
	default:
		rs := cg.srcReg(in.A, 0)
		name := isa.STB
		if in.Size == 2 {
			name = isa.STH
		}
		if cg.spec.SubwordDisp && off >= -32768 && off <= 32767 {
			cg.emitMem(ins(name, reg(rs), mem(off, base)), nil, rr(rs, base))
			return
		}
		if off == 0 {
			cg.emitMem(ins(name, reg(rs), mem(0, base)), nil, rr(rs, base))
			return
		}
		t := cg.storeScratch(rs, base)
		cg.addImmInto(t, base, off)
		cg.emitMem(ins(name, reg(rs), mem(0, t)), nil, rr(rs, t))
	}
}

// storeScratch picks an integer scratch register distinct from the value
// and base registers, or NoReg when both scratches are occupied (callers
// only dereference it for over-range displacements, which the legalizer
// guarantees cannot coincide with two spilled operands).
func (cg *codegen) storeScratch(rs, base isa.Reg) isa.Reg {
	for _, s := range cg.scratchI {
		if s != rs && s != base {
			return s
		}
	}
	return isa.NoReg
}

func (cg *codegen) genAddrInto(rd isa.Reg, in *Ins) {
	switch in.AK {
	case AKSlot:
		cg.addImmInto(rd, isa.RegSP, cg.slotOff[in.Slot]+in.Off)
	case AKGlobal:
		off, ok := cg.data.offsets[in.Sym]
		if !ok {
			// Not a data symbol: a text address (function), resolved by
			// the assembler.
			cg.loadSymInto(rd, in.Sym, in.Off)
			return
		}
		goff := off + in.Off
		if goff >= 0 && cg.spec.FitsALUImm(goff) {
			cg.addImmInto(rd, isa.RegGP, goff)
		} else {
			cg.loadSymInto(rd, in.Sym, in.Off)
		}
	default:
		base := cg.srcReg(in.A, 1)
		cg.addImmInto(rd, base, in.Off)
	}
}

func (cg *codegen) genFPConst(in *Ins) {
	double := in.Ty == TF64
	label := cg.data.fpConst(fbits(in.FImm, double), double)
	rd, commit := cg.dstReg(in.Dst, 0)
	off, ok := cg.data.offsets[label]
	if !ok {
		cg.fail("missing fp constant %s", label)
		return
	}
	if cg.fitsWordDisp(off) && (!double || cg.fitsWordDisp(off+4)) {
		cg.loadFPFrom(rd, isa.RegGP, off, double, cg.scratchI[0])
	} else {
		a := cg.scratchI[1]
		cg.loadSymInto(a, label, 0)
		cg.loadFPFrom(rd, a, 0, double, cg.scratchI[0])
	}
	commit()
}

// --- scheduling and peepholes ---------------------------------------------------------

// peephole removes branches to the immediately-following label (with
// their delay-slot nops). Run before scheduling so filled slots are never
// discarded.
func (cg *codegen) peephole() {
	out := cg.lines[:0] // in place: out never passes the line being read
	for i := 0; i < len(cg.lines); i++ {
		l := cg.lines[i]
		if l.ctl && l.stmt.Op == isa.BR && i+2 < len(cg.lines) {
			nxt := cg.lines[i+1]
			lab := cg.lines[i+2]
			if nxt.isNop() && lab.stmt.Kind == asm.LabelStmt && l.stmt.Args[0].E == (asm.Expr{Sym: lab.stmt.Name}) {
				out = append(out, lab)
				i += 2
				continue
			}
		}
		out = append(out, l)
	}
	cg.lines = out
}

// scheduleLoads spaces load-use pairs: when the instruction right after
// a load consumes its result (a one-cycle interlock), an independent
// following instruction moves into the load shadow. Run before delay-slot
// filling so slot contents stay pinned.
func (cg *codegen) scheduleLoads() {
	for i := 0; i+2 < len(cg.lines); i++ {
		l := cg.lines[i]
		if !l.mem || len(l.defs) == 0 || l.ctl || !l.isInstr() {
			continue // not a load
		}
		b := cg.lines[i+1]
		c := cg.lines[i+2]
		if !b.isInstr() || b.ctl || b.slotted || !c.isInstr() || c.ctl || c.slotted {
			continue
		}
		if !regsOverlap(b.uses, l.defs) {
			continue // no stall to fix
		}
		if regsOverlap(c.uses, l.defs) {
			continue // no profit: c would stall instead
		}
		// C moves above B: no dependences in either direction, and no
		// memory-vs-memory reordering.
		if regsOverlap(c.defs, b.defs) || regsOverlap(c.defs, b.uses) ||
			regsOverlap(c.uses, b.defs) {
			continue
		}
		if b.mem && c.mem {
			continue
		}
		cg.lines[i+1], cg.lines[i+2] = c, b
	}
}

// schedule fills branch delay slots with a safe preceding instruction.
func (cg *codegen) schedule() {
	for i := 1; i+1 < len(cg.lines); i++ {
		ctl := cg.lines[i]
		if !ctl.ctl || !cg.lines[i+1].isNop() || len(cg.lines[i+1].defs) != 0 {
			continue
		}
		cand := cg.lines[i-1]
		if !cand.isInstr() || cand.ctl || cand.slotted || cand.isNop() {
			continue
		}
		if regsOverlap(cand.defs, ctl.uses) || regsOverlap(cand.defs, ctl.defs) ||
			regsOverlap(cand.uses, ctl.defs) {
			continue
		}
		// Move cand into the slot. It executes there exactly once, before
		// control arrives at the target — but it must never move again
		// (a second move would carry it past another transfer).
		cand.slotted = true
		cg.lines[i-1] = ctl
		cg.lines[i] = cand
		copy(cg.lines[i+1:], cg.lines[i+2:])
		cg.lines = cg.lines[:len(cg.lines)-1]
	}
}

func regsOverlap(a, b []isa.Reg) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
