// Package asm implements a two-pass assembler for the common assembly
// language shared by the D16 and DLXe targets.
//
// The same source assembles for either target: the assembler accepts the
// canonical three-operand syntax everywhere and validates two-address
// constraints at encode time, expands target-dependent pseudo-instructions
// (la/li, call, ret, j/jl to a label), manages D16 literal pools (the LDC
// mechanism), and relaxes out-of-range branches into far sequences.
//
// Its input is statements (Stmt): Parse reads them from text, the
// compiler builds them, Format prints them. Directives: .text .data .bss
// .global .align .word .half .byte .ascii(z) .space .pool.
//
// Delay slots are architectural and explicit: the assembler never inserts
// them. Writers (including the compiler) place the delay-slot instruction
// textually after every branch, jump and call.
package asm

import (
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

type section uint8

const (
	secText section = iota
	secData
	secBSS // zero-initialized data: addressed after .data, occupies no file bytes
)

type tgtKind uint8

const (
	tgtNone   tgtKind = iota
	tgtAbs            // Imm = eval(expr) directly
	tgtBranch         // Imm = eval(expr) - item address (relaxable)
	tgtJump           // J-type: Imm = eval(expr) - item address
	tgtLit            // literal pool reference: Imm = literal addr - item address
)

type itemKind uint8

const (
	itInstr itemKind = iota
	itLabel
	itPool
	itAlign
	itWord
	itHalf
	itByte
	itAscii
	itSpace
)

type literal struct {
	e    Expr
	addr uint32
}

type item struct {
	kind itemKind
	sec  section
	line int
	addr uint32
	size uint32

	// itInstr
	in      isa.Instr
	tgt     Expr
	tgtKind tgtKind
	noRelax bool // part of an already-expanded far sequence
	lit     *literal

	// itLabel / itWord / itHalf / itByte / itAscii / itSpace / itAlign
	name  string
	exprs []Expr
	data  []byte
	n     uint32

	// itPool
	lits []*literal
}

// assembler holds one assembly unit in progress.
type assembler struct {
	errList
	spec     *isa.Spec
	items    []*item
	sec      section
	farSeq   int
	bssBytes uint32
}

// Assemble assembles one complete program from text (a single unit):
// Parse followed by AssembleStmts.
func Assemble(file, src string, spec *isa.Spec) (*prog.Image, error) {
	stmts, err := Parse(file, src)
	if err != nil {
		return nil, err
	}
	return AssembleStmts(file, stmts, spec)
}

// AssembleStmts assembles one complete program from statements (the
// compiler hands it the runtime library's and its own in one slice).
func AssembleStmts(file string, stmts []Stmt, spec *isa.Spec) (*prog.Image, error) {
	a := &assembler{errList: errList{file: file}, spec: spec}
	span := telemetry.StartSpan("assemble", telemetry.String("file", file))
	for i := range stmts {
		a.build(i, &stmts[i])
	}
	span.End()
	if err := a.err(); err != nil {
		return nil, err
	}
	lspan := telemetry.StartSpan("link", telemetry.String("file", file))
	defer lspan.End()
	return a.link()
}

func (a *assembler) add(it *item) *item {
	it.sec = a.sec
	a.items = append(a.items, it)
	return it
}

func (a *assembler) instr(line int, in isa.Instr) *item {
	return a.add(&item{kind: itInstr, line: line, in: in})
}

// build turns statement i into items: the one place statements, parsed
// or built by the compiler, become the linker's input.
func (a *assembler) build(i int, s *Stmt) {
	line := s.Line
	if line == 0 {
		line = i + 1
	}
	switch s.Kind {
	case LabelStmt:
		a.add(&item{kind: itLabel, line: line, name: s.Name})
	case DirStmt:
		a.directive(line, s)
	default:
		a.buildInstr(line, s)
	}
}

func (a *assembler) directive(line int, s *Stmt) {
	switch s.Name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".bss":
		a.sec = secBSS
	case ".global", ".globl":
	case ".pool":
		a.add(&item{kind: itPool, line: line})
	case ".align", ".space":
		// One constant size; an alignment is a nonzero power of two.
		n, kind := int64(-1), itSpace
		if len(s.Args) == 1 && s.Args[0].E.isConst() && s.Args[0].E.Mod == NoMod {
			n = s.Args[0].E.Off
		}
		if s.Name == ".align" {
			kind = itAlign
			if n <= 0 || n&(n-1) != 0 {
				n = -1
			}
		}
		if n < 0 || n > int64(isa.MemSize) {
			a.errf(line, "bad %s size", s.Name)
			return
		}
		a.add(&item{kind: kind, line: line, n: uint32(n)})
	case ".word", ".half", ".byte":
		it := &item{kind: map[string]itemKind{".word": itWord, ".half": itHalf, ".byte": itByte}[s.Name], line: line}
		for _, v := range s.Args {
			it.exprs = append(it.exprs, v.E)
		}
		if len(it.exprs) == 0 {
			a.errf(line, "%s needs at least one value", s.Name)
			return
		}
		a.add(it)
	case ".asciiz", ".ascii":
		str := s.Str
		if s.Name == ".asciiz" {
			str += "\x00"
		}
		a.add(&item{kind: itAscii, line: line, data: []byte(str)})
	default:
		a.errf(line, "unknown directive %s", s.Name)
	}
}

// --- instruction building -------------------------------------------------

// hasShape reports whether the operand kinds spell shape: r register,
// e expression, m disp(reg), l =literal.
func hasShape(ops []Operand, shape string) bool {
	if len(ops) != len(shape) {
		return false
	}
	for i, o := range ops {
		if "reml"[o.Kind] != shape[i] {
			return false
		}
	}
	return true
}

func (a *assembler) buildInstr(line int, s *Stmt) {
	ops, op := s.Args, s.Op
	r := func(i int) isa.Reg { return ops[i].Reg }
	// tgt adds in with operand i's expression as its target.
	tgt := func(in isa.Instr, i int, k tgtKind) {
		it := a.instr(line, in)
		it.tgt, it.tgtKind = ops[i].E, k
	}
	// form returns the index of the shape the operands have, or reports
	// the mismatch and returns -1.
	form := func(shapes ...string) int {
		for i, sh := range shapes {
			if hasShape(ops, sh) {
				return i
			}
		}
		a.errf(line, "%s: operands must be %s (r register, e expression, m disp(reg), l =literal)",
			s.mnemonic(), strings.Join(shapes, " or "))
		return -1
	}

	switch {
	case s.Pseudo == LA:
		if form("re") == 0 {
			a.expandLA(line, r(0), ops[1].E)
		}
	case s.Pseudo == Call:
		if form("e") == 0 {
			a.jumpToLabel(line, isa.JL, ops[0].E)
		}
	case s.Pseudo == Ret:
		if form("") == 0 {
			a.instr(line, isa.Instr{Op: isa.J, Rs1: isa.RegLink})
		}
	case op == isa.NOP:
		a.instr(line, isa.MakeNop())
	case op == isa.LDC:
		if f := form("rl", "re"); f >= 0 {
			tgt(isa.Instr{Op: op, Rd: r(0), Rs1: isa.NoReg}, 1, [2]tgtKind{tgtLit, tgtAbs}[f])
		}
	case op.IsLoad() || op.IsStore():
		if form("rm") == 0 {
			tgt(isa.Instr{Op: op, Rd: r(0), Rs1: r(1)}, 1, tgtAbs)
		}
	case op == isa.BR:
		if form("e") == 0 {
			a.branchItem(line, isa.Instr{Op: op}, ops[0].E)
		}
	case op == isa.BZ || op == isa.BNZ:
		switch form("e", "re") {
		case 0:
			a.branchItem(line, isa.Instr{Op: op, Rs1: isa.RegCC}, ops[0].E)
		case 1:
			a.branchItem(line, isa.Instr{Op: op, Rs1: r(0)}, ops[1].E)
		}
	case op.IsJump():
		switch form("r", "e") {
		case 0:
			a.instr(line, isa.Instr{Op: op, Rs1: r(0)})
		case 1:
			a.jumpToLabel(line, op, ops[0].E)
		}
	case op == isa.MVI || op == isa.MVHI:
		if form("re") == 0 {
			tgt(isa.Instr{Op: op, Rd: r(0), HasImm: true}, 1, tgtAbs)
		}
	case op == isa.TRAP:
		if form("e") == 0 {
			tgt(isa.Instr{Op: op, HasImm: true}, 0, tgtAbs)
		}
	case op == isa.RDSR:
		if form("r") == 0 {
			a.instr(line, isa.Instr{Op: op, Rd: r(0)})
		}
	case op == isa.MV || op == isa.MVFL || op == isa.MVFH || op == isa.MFFL ||
		op == isa.MFFH || op == isa.FMV || (op >= isa.CVTSISF && op <= isa.CVTSFSI):
		if form("rr") == 0 {
			a.instr(line, isa.Instr{Op: op, Rd: r(0), Rs1: r(1)})
		}
	case op == isa.NEG || op == isa.INV || op == isa.FNEGS || op == isa.FNEGD:
		if f := form("r", "rr"); f >= 0 {
			a.instr(line, isa.Instr{Op: op, Rd: r(0), Rs1: r(f)})
		}
	case op.IsFCmp():
		if form("rr") == 0 {
			a.instr(line, isa.Instr{Op: op, Cond: s.Cond, Rs1: r(0), Rs2: r(1)})
		}
	default:
		// Compares and register-register / register-immediate ALU and FP
		// arithmetic, in three-operand or two-operand form. A two-operand
		// compare writes r0 (D16 sugar); a two-operand ALU op writes its
		// left source.
		shapes := []string{"rr", "rrr"}
		if op == isa.CMP {
			shapes = append(shapes, "re", "rre")
		} else if op.HasImmediate() {
			shapes = []string{"re", "rre"}
		}
		if form(shapes...) < 0 {
			return
		}
		n := len(ops)
		in := isa.Instr{Op: op, Rd: r(0), Rs1: r(n - 2)}
		if op == isa.CMP {
			in.Cond = s.Cond
			if n == 2 {
				in.Rd = isa.RegCC
			}
		}
		if ops[n-1].Kind == RegOp {
			in.Rs2 = r(n - 1)
			a.instr(line, in)
		} else {
			in.HasImm = true
			tgt(in, n-1, tgtAbs)
		}
	}
}

// branchItem records a PC-relative branch. A constant target expression is
// a raw displacement (disassembler round-trip form); a symbolic one is
// resolved and relaxed as needed.
func (a *assembler) branchItem(line int, in isa.Instr, target Expr) {
	it := a.instr(line, in)
	if target.isConst() && target.Mod == NoMod {
		it.tgt, it.tgtKind = target, tgtAbs
		return
	}
	it.tgt, it.tgtKind = target, tgtBranch
}

// jumpToLabel handles "j label" / "jl label": a J-type jump on DLXe, and a
// literal-pool address load plus register jump on D16.
func (a *assembler) jumpToLabel(line int, op isa.Op, target Expr) {
	if op == isa.JZ || op == isa.JNZ {
		a.errf(line, "%s requires a register target", op)
		return
	}
	if a.spec.HasJType {
		it := a.instr(line, isa.Instr{Op: op, HasImm: true})
		if target.isConst() && target.Mod == NoMod {
			it.tgt, it.tgtKind = target, tgtAbs
		} else {
			it.tgt, it.tgtKind = target, tgtJump
		}
		return
	}
	lit := a.instr(line, isa.Instr{Op: isa.LDC, Rd: isa.RegCC, Rs1: isa.NoReg})
	lit.tgt, lit.tgtKind = target, tgtLit
	a.instr(line, isa.Instr{Op: op, Rs1: isa.RegCC})
}

// expandLA emits the target's address/constant materialization sequence.
func (a *assembler) expandLA(line int, rd isa.Reg, e Expr) {
	if !rd.IsGPR() {
		a.errf(line, "la destination must be a GPR")
		return
	}

	if a.spec.Enc == isa.EncD16 {
		if e.isConst() && e.Mod == NoMod && a.spec.FitsMVI(int32(e.Off)) {
			a.instr(line, isa.Instr{Op: isa.MVI, Rd: rd, Imm: int32(e.Off), HasImm: true})
			return
		}
		lit := a.instr(line, isa.Instr{Op: isa.LDC, Rd: isa.RegCC, Rs1: isa.NoReg})
		lit.tgt, lit.tgtKind = e, tgtLit
		if rd != isa.RegCC {
			a.instr(line, isa.Instr{Op: isa.MV, Rd: rd, Rs1: isa.RegCC})
		}
		return
	}

	// DLXe: constant folding when the value is known now.
	if e.isConst() && e.Mod == NoMod {
		v := e.Off
		switch {
		case v >= -32768 && v <= 32767:
			a.instr(line, isa.Instr{Op: isa.MVI, Rd: rd, Imm: int32(v), HasImm: true})
		case v >= 0 && v <= 0xFFFF:
			a.instr(line, isa.Instr{Op: isa.ORI, Rd: rd, Rs1: isa.R(0), Imm: int32(v), HasImm: true})
		default:
			a.instr(line, isa.Instr{Op: isa.MVHI, Rd: rd,
				Imm: int32(uint32(v) >> 16), HasImm: true})
			if lo := uint32(v) & 0xFFFF; lo != 0 {
				a.instr(line, isa.Instr{Op: isa.ORI, Rd: rd, Rs1: rd,
					Imm: int32(lo), HasImm: true})
			}
		}
		return
	}
	if e.Mod != NoMod {
		a.errf(line, "la operand cannot carry a lo16/hi16/gprel modifier")
		return
	}
	hi := a.instr(line, isa.Instr{Op: isa.MVHI, Rd: rd, HasImm: true})
	hi.tgt, hi.tgtKind = Expr{Mod: Hi16, Sym: e.Sym, Off: e.Off}, tgtAbs
	lo := a.instr(line, isa.Instr{Op: isa.ORI, Rd: rd, Rs1: rd, HasImm: true})
	lo.tgt, lo.tgtKind = Expr{Mod: Lo16, Sym: e.Sym, Off: e.Off}, tgtAbs
}
