package isa

import "testing"

// TestImmClassOf pins the Table 4 rule at every field limit: the last
// value that fits and the first that does not, on both sides where the
// field is signed.
func TestImmClassOf(t *testing.T) {
	cmp := func(imm int32) Instr { return Instr{Op: CMP, Cond: LT, Rd: R(3), Rs1: R(4), Imm: imm, HasImm: true} }
	alu := func(op Op, imm int32) Instr { return Instr{Op: op, Rd: R(3), Rs1: R(3), Imm: imm, HasImm: true} }
	mem := func(op Op, imm int32) Instr { return Instr{Op: op, Rd: R(3), Rs1: R(2), Imm: imm} }
	mvi := func(imm int32) Instr { return Instr{Op: MVI, Rd: R(3), Imm: imm, HasImm: true} }
	for _, tc := range []struct {
		in   Instr
		want ImmClass
	}{
		{cmp(0), ImmCmp8},
		{cmp(100), ImmCmp8},
		{cmp(255), ImmCmp8},
		{cmp(256), ImmCmp},
		{cmp(1000), ImmCmp},
		{cmp(-1), ImmCmp},
		{Instr{Op: CMP, Cond: LT, Rd: R(3), Rs1: R(4), Rs2: R(5)}, ImmFits},

		{mvi(255), ImmFits},
		{mvi(256), ImmWideMVI},
		{mvi(300), ImmWideMVI},
		{mvi(-256), ImmFits},
		{mvi(-257), ImmWideMVI},
		{Instr{Op: MVHI, Rd: R(3), Imm: 1, HasImm: true}, ImmWideMVI},

		{alu(ADDI, 0), ImmFits},
		{alu(ADDI, 7), ImmFits},
		{alu(ADDI, 31), ImmFits},
		{alu(ADDI, 32), ImmWideALU},
		{alu(ADDI, 77), ImmWideALU},
		{alu(ADDI, -1), ImmWideALU},
		{alu(SUBI, 31), ImmFits},
		{alu(SUBI, 32), ImmWideALU},
		{alu(ORI, 1), ImmWideALU},
		{alu(ANDI, 0), ImmWideALU},
		{alu(XORI, 1), ImmWideALU},
		{Instr{Op: ADD, Rd: R(3), Rs1: R(3), Rs2: R(4)}, ImmFits},

		{mem(LD, 0), ImmFits},
		{mem(LD, 120), ImmFits},
		{mem(LD, 124), ImmFits},
		{mem(LD, 128), ImmWideMem},
		{mem(LD, -4), ImmWideMem},
		{mem(ST, 124), ImmFits},
		{mem(ST, 128), ImmWideMem},
		{mem(LDB, 0), ImmFits},
		{mem(LDB, 1), ImmWideMem},
		{mem(STH, 2), ImmWideMem},

		{Instr{Op: J, Rs1: R(5)}, ImmFits},
		{Instr{Op: J, Imm: 400, HasImm: true}, ImmFarCall},
		{Instr{Op: JL, Rs1: R(5)}, ImmFits},
		{Instr{Op: JL, Imm: 400, HasImm: true}, ImmFarCall},
		{MakeNop(), ImmFits},
	} {
		if got := ImmClassOf(tc.in); got != tc.want {
			t.Errorf("ImmClassOf(%s) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
