// Package isa defines the machine-independent instruction model shared by
// the D16 and DLXe instruction encodings of Bunda et al. (ISCA 1993).
//
// Both instruction sets are "RISC-inspired load-store" designs that execute
// on the same five-stage pipeline; they differ only in encoding width
// (16 vs. 32 bits), register-file size (16 vs. 32 of each class), address
// arity (two- vs. three-address), and immediate/displacement field widths.
// This package captures the common semantic layer: registers, operations,
// conditions, the decoded instruction form, and the TargetSpec feature
// knobs that the encoders, the assembler and the compiler backend consult.
package isa

import "fmt"

// Reg names one architectural register. General-purpose registers are
// R(0)..R(31) and floating-point registers are F(0)..F(31); the two files
// are disjoint namespaces folded into one type so that instructions can
// carry either kind. The zero value is R(0), not NoReg: an instruction
// field left unset names r0, and NoReg (0xFF) means "no register operand".
type Reg uint8

// NoReg is the absent-operand sentinel. It is deliberately distinct from
// R(0): r0 is a real, architecturally special register on both machines.
const NoReg Reg = 0xFF

const fprBase = 32

// R returns the general-purpose register with the given number.
func R(n int) Reg {
	if n < 0 || n > 31 {
		panic(fmt.Sprintf("isa: bad GPR number %d", n))
	}
	return Reg(n)
}

// F returns the floating-point register with the given number.
func F(n int) Reg {
	if n < 0 || n > 31 {
		panic(fmt.Sprintf("isa: bad FPR number %d", n))
	}
	return Reg(fprBase + n)
}

// IsGPR reports whether r names a general-purpose register.
func (r Reg) IsGPR() bool { return r < fprBase }

// IsFPR reports whether r names a floating-point register.
func (r Reg) IsFPR() bool { return r != NoReg && r >= fprBase && r < 2*fprBase }

// Valid reports whether r names any architectural register.
func (r Reg) Valid() bool { return r != NoReg && r < 2*fprBase }

// Num returns the register number within its file (0..31).
func (r Reg) Num() int {
	if r.IsFPR() {
		return int(r - fprBase)
	}
	return int(r)
}

// String renders the conventional assembly name (r4, f7, ...).
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFPR():
		return fmt.Sprintf("f%d", r.Num())
	default:
		return fmt.Sprintf("r%d", r.Num())
	}
}

// Architectural register roles shared by both instruction sets. See
// DESIGN.md §4; these mirror the paper's fixed conventions (r0 condition /
// zero, r1 linkage) plus the ABI this reproduction fixes for its compiler.
const (
	// RegCC is r0: on D16 the implicit destination of integer compares and
	// the implicit source of bz/bnz; on DLXe it is hardwired zero.
	RegCC = Reg(0)
	// RegLink is r1, the linkage register written by jl (the paper fixes
	// this for both machines).
	RegLink = Reg(1)
	// RegSP is r2, the stack pointer (grows down, 8-byte aligned frames).
	RegSP = Reg(2)
	// RegGP is r13, the global pointer: a fixed base into the .data
	// segment so short displacements can reach frequently used globals.
	RegGP = Reg(13)
)
