package mcc

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// The intermediate representation: non-SSA three-address code over typed
// virtual registers, organized into basic blocks. The code generator
// legalizes IR operations against an isa.Spec, which is where the paper's
// instruction-set feature differences (immediate widths, displacement
// ranges, two-address form, register count) take effect.

// Ty is an IR value type. Pointers and chars are I32 (chars live
// sign-extended in registers).
type Ty uint8

const (
	TI32 Ty = iota
	TF32
	TF64
)

func (t Ty) String() string { return [...]string{"i32", "f32", "f64"}[t] }

// IsFloat reports whether the type lives in the FP register file.
func (t Ty) IsFloat() bool { return t != TI32 }

// VReg is a virtual register index; NoV means absent.
type VReg int32

// NoV is the absent-operand sentinel.
const NoV VReg = -1

// IOp enumerates IR operations.
type IOp uint8

const (
	IBad IOp = iota

	IConst // Dst = Imm (TI32) or FImm (float types)
	IMov   // Dst = A
	IAdd   // integer and pointer arithmetic
	ISub
	IMul // lowered to a runtime call unless strength-reduced
	IDiv // lowered to a runtime call
	IRem // lowered to a runtime call
	IAnd
	IOr
	IXor
	IShl
	IShr // logical
	ISra // arithmetic
	INeg
	INot
	ICmp // Dst = (A Cond B) as 0/1

	IFAdd // FP arithmetic, Ty selects precision
	IFSub
	IFMul
	IFDiv
	IFNeg
	IFCmp // Dst(i32) = (A Cond B), operands of Ty

	ICvt // Dst(Ty) = convert A (SrcTy)

	ILoad  // Dst = mem[addr]; Size 1/2/4/8; Signed for sub-word loads
	IStore // mem[addr] = A; Size

	IAddr // Dst = address described by the addressing fields

	ICall // Dst(opt) = Sym(Args...); Builtin for print_* traps
	IRet  // return A (optional)

	IBr     // goto Imm (block ID)
	ICondBr // if A != 0 goto Imm else goto Imm2
)

var iopNames = [...]string{
	IBad: "bad", IConst: "const", IMov: "mov", IAdd: "add", ISub: "sub",
	IMul: "mul", IDiv: "div", IRem: "rem", IAnd: "and", IOr: "or",
	IXor: "xor", IShl: "shl", IShr: "shr", ISra: "sra", INeg: "neg",
	INot: "not", ICmp: "cmp", IFAdd: "fadd", IFSub: "fsub", IFMul: "fmul",
	IFDiv: "fdiv", IFNeg: "fneg", IFCmp: "fcmp", ICvt: "cvt",
	ILoad: "load", IStore: "store", IAddr: "addr", ICall: "call",
	IRet: "ret", IBr: "br", ICondBr: "condbr",
}

func (op IOp) String() string { return iopNames[op] }

// AddrKind selects how a load/store/addr computes its effective address.
type AddrKind uint8

const (
	AKNone   AddrKind = iota
	AKReg             // [A + Off]
	AKGlobal          // [&Sym + Off]
	AKSlot            // [sp-frame slot Slot + Off]
)

// Ins is one IR instruction.
type Ins struct {
	Op    IOp
	Ty    Ty
	SrcTy Ty       // ICvt source type
	Cond  isa.Cond // ICmp / IFCmp

	Dst, A, B VReg

	Imm  int64   // IConst value; IBr/ICondBr: target block IDs (Imm/Imm2)
	Imm2 int64   // ICondBr else-target
	FImm float64 // IConst for float types

	// HasBImm replaces the B operand with the immediate BImm (created by
	// constant propagation; the code generator decides per target whether
	// the immediate fits an instruction field or must be materialized).
	HasBImm bool
	BImm    int64

	// Addressing (ILoad/IStore/IAddr).
	AK     AddrKind
	Sym    string // AKGlobal symbol, ICall callee
	Slot   int    // AKSlot index
	Off    int32
	Size   uint8 // ILoad/IStore access size in bytes
	Signed bool  // sub-word load sign extension

	Args    []VReg // ICall
	Builtin bool   // ICall to a print_* builtin (lowers to a trap)
}

// IsTerm reports whether the instruction ends a basic block.
func (in *Ins) IsTerm() bool { return in.Op == IBr || in.Op == ICondBr || in.Op == IRet }

// uses appends the instruction's register sources to dst. It is strictly
// op-aware: unset operand fields of a literal Ins are zero (vreg 0), so
// only fields the operation actually reads may be consulted.
func (in *Ins) uses(dst []VReg) []VReg {
	add := func(v VReg) {
		if v != NoV {
			dst = append(dst, v)
		}
	}
	switch in.Op {
	case IConst, IBr:
		// no register sources
	case ILoad, IAddr:
		if in.AK == AKReg {
			add(in.A)
		}
	case IStore:
		add(in.A)
		if in.AK == AKReg {
			add(in.B)
		}
	case ICall:
		add(in.A) // indirect call target (D16 lowering), NoV when direct
		for _, a := range in.Args {
			add(a)
		}
	case IMov, INeg, INot, IFNeg, ICvt, IRet, ICondBr:
		add(in.A)
	default:
		add(in.A)
		if !in.HasBImm {
			add(in.B)
		}
	}
	return dst
}

// def returns the register the instruction writes, or NoV.
func (in *Ins) def() VReg {
	switch in.Op {
	case IStore, IRet, IBr, ICondBr:
		return NoV
	}
	return in.Dst
}

// hasSideEffects reports whether the instruction must be kept even if its
// result is unused.
func (in *Ins) hasSideEffects() bool {
	switch in.Op {
	case IStore, ICall, IRet, IBr, ICondBr:
		return true
	case IDiv, IRem:
		return true // division by zero traps in spirit; keep it simple
	}
	return false
}

// Block is one basic block; the last instruction is the terminator.
type Block struct {
	ID  int
	Ins []Ins
}

// Term returns the block's terminator.
func (b *Block) Term() *Ins {
	if len(b.Ins) == 0 {
		return nil
	}
	t := &b.Ins[len(b.Ins)-1]
	if !t.IsTerm() {
		return nil
	}
	return t
}

// Succs returns the IDs of successor blocks.
func (b *Block) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case IBr:
		return []int{int(t.Imm)}
	case ICondBr:
		return []int{int(t.Imm), int(t.Imm2)}
	}
	return nil
}

// SlotInfo describes one stack-frame object.
type SlotInfo struct {
	Name  string
	Size  int
	Align int
}

// Loop records one source-level loop for invariant hoisting: Pre is the
// preheader block (the unique block that branches into the header from
// outside), and Blocks are the member block IDs, ascending.
type Loop struct {
	Pre    int
	Head   int
	Blocks []int
}

// IRFunc is one function in IR form.
type IRFunc struct {
	Name   string
	Blocks []*Block
	NReg   int
	// NBlock counts the blocks ever created: IDs are 0..NBlock-1, and
	// pruning leaves gaps.
	NBlock int
	RegTy  []Ty
	Slots  []SlotInfo
	Params []VReg // parameter vregs, in declaration order
	Ret    *Type
	// Loops lists source loops innermost-first (the order the IR
	// generator finishes them).
	Loops []Loop
	// NStackArgs is the number of parameters passed on the stack
	// (beyond the four register arguments).
	NStackArgs int
	// MaxOutArgs is the largest number of stack-passed outgoing arguments
	// at any call site in the body.
	MaxOutArgs int
	// HasCall reports whether the body contains a (non-builtin) call.
	HasCall bool
}

// NewVReg allocates a fresh virtual register of type t.
func (f *IRFunc) NewVReg(t Ty) VReg {
	f.RegTy = append(f.RegTy, t)
	f.NReg++
	return VReg(f.NReg - 1)
}

// NewBlock appends a fresh empty block.
func (f *IRFunc) NewBlock() *Block {
	b := &Block{ID: f.NBlock}
	f.NBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// blocksByID returns f's blocks in a table indexed by ID, nil where a
// block was pruned.
func (f *IRFunc) blocksByID() []*Block {
	byID := make([]*Block, f.NBlock)
	for _, b := range f.Blocks {
		byID[b.ID] = b
	}
	return byID
}

// String renders the function's IR (for tests and debugging).
func (f *IRFunc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for i := range b.Ins {
			in := &b.Ins[i]
			fmt.Fprintf(&sb, "\t%s\n", in.debugString())
		}
	}
	return sb.String()
}

func (in *Ins) debugString() string {
	var sb strings.Builder
	if d := in.def(); d != NoV {
		fmt.Fprintf(&sb, "v%d = ", d)
	}
	sb.WriteString(in.Op.String())
	if in.Cond != isa.CondNone {
		sb.WriteByte('.')
		sb.WriteString(in.Cond.String())
	}
	fmt.Fprintf(&sb, ".%s", in.Ty)
	switch in.Op {
	case IConst:
		if in.Ty == TI32 {
			fmt.Fprintf(&sb, " %d", in.Imm)
		} else {
			fmt.Fprintf(&sb, " %g", in.FImm)
		}
	case IBr:
		fmt.Fprintf(&sb, " b%d", in.Imm)
	case ICondBr:
		fmt.Fprintf(&sb, " v%d ? b%d : b%d", in.A, in.Imm, in.Imm2)
	case ICall:
		fmt.Fprintf(&sb, " %s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "v%d", a)
		}
		sb.WriteString(")")
	case ILoad, IStore, IAddr:
		switch in.AK {
		case AKReg:
			base := in.A
			if in.Op == IStore {
				base = in.B
			}
			fmt.Fprintf(&sb, " [v%d+%d]", base, in.Off)
		case AKGlobal:
			fmt.Fprintf(&sb, " [&%s+%d]", in.Sym, in.Off)
		case AKSlot:
			fmt.Fprintf(&sb, " [slot%d+%d]", in.Slot, in.Off)
		}
		if in.Op == IStore {
			fmt.Fprintf(&sb, " <- v%d", in.A)
		}
		fmt.Fprintf(&sb, " sz%d", in.Size)
	default:
		if in.A != NoV {
			fmt.Fprintf(&sb, " v%d", in.A)
		}
		if in.HasBImm {
			fmt.Fprintf(&sb, ", #%d", in.BImm)
		} else if in.B != NoV {
			fmt.Fprintf(&sb, ", v%d", in.B)
		}
	}
	return sb.String()
}
