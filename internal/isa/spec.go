package isa

import "fmt"

// Encoding identifies which binary instruction format a program uses.
type Encoding uint8

const (
	// EncD16 is the 16-bit format (five instruction types).
	EncD16 Encoding = iota
	// EncDLXe is the 32-bit DLX-variant format (three instruction types).
	EncDLXe
)

// String returns "D16" or "DLXe".
func (e Encoding) String() string {
	if e == EncD16 {
		return "D16"
	}
	return "DLXe"
}

// InstrBytes returns the fixed instruction size in bytes.
func (e Encoding) InstrBytes() uint32 {
	if e == EncD16 {
		return 2
	}
	return 4
}

// Spec describes one compiler/assembler target: an encoding plus the
// feature restrictions the paper's Section 3.3 toggles. The paper derives
// its feature analysis by "selectively restricting" the DLXe code
// generator; RestrictRegs and TwoAddress build those restricted variants.
type Spec struct {
	Name string
	Enc  Encoding

	// Register files visible to the compiler.
	NumGPR int
	NumFPR int

	// ThreeAddress: destination may differ from the left source operand.
	// When false, ALU operations require Rd == Rs1 and the compiler
	// inserts moves.
	ThreeAddress bool

	// Immediate capabilities.
	ALUImmBits    int  // unsigned bits for addi/subi/shifts
	MVIBits       int  // signed bits for mvi
	HasMVHI       bool // mvhi (set upper 16 bits)
	HasLogicalImm bool // andi/ori/xori with 16-bit immediates
	HasCmpImm     bool // compare with immediate right operand
	HasGTConds    bool // gt/gtu/ge/geu compare conditions

	// Addressing capabilities.
	MemDispBits    int  // unsigned bits of *word* displacement for ld/st
	SubwordDisp    bool // whether ldb/ldh/stb/sth accept a displacement
	HasLDC         bool // PC-relative literal-pool load (D16)
	LDCRangeBytes  int  // ± reach of an LDC literal
	BranchRangeIns int  // ± reach of br/bz/bnz in *instructions*
	HasJType       bool // absolute-target j/jl (DLXe 26-bit J-type)

	// Register semantics.
	R0Zero  bool // r0 hardwired to zero (DLXe)
	R0IsCC  bool // compares implicitly target r0; bz/bnz implicitly test it (D16)
	RdsrAny bool // rdsr may target any GPR (DLXe); else implicitly r0

	// CmpImm8 is the paper's Section 3.3.3 proposal: give up one bit of
	// the D16 MVI immediate (9 -> 8 bits) to gain an 8-bit
	// compare-equal-immediate instruction. See D16Plus.
	CmpImm8 bool
}

// InstrBytes returns the fixed instruction size for the target.
func (s *Spec) InstrBytes() uint32 { return s.Enc.InstrBytes() }

// MaxALUImm returns the largest unsigned ALU immediate.
func (s *Spec) MaxALUImm() int32 { return 1<<uint(s.ALUImmBits) - 1 }

// MVIRange returns the inclusive signed range of the mvi immediate.
func (s *Spec) MVIRange() (lo, hi int32) {
	half := int32(1) << uint(s.MVIBits-1)
	return -half, half - 1
}

// MaxMemDisp returns the largest byte displacement usable on a word
// load/store (word displacements scale by 4).
func (s *Spec) MaxMemDisp() int32 { return (1<<uint(s.MemDispBits) - 1) * 4 }

// FitsMemDisp reports whether a byte displacement is encodable on a word
// load/store for this target.
func (s *Spec) FitsMemDisp(disp int32) bool {
	return disp >= 0 && disp <= s.MaxMemDisp() && disp%4 == 0
}

// FitsALUImm reports whether v is encodable as an addi/subi/shift
// immediate.
func (s *Spec) FitsALUImm(v int32) bool { return v >= 0 && v <= s.MaxALUImm() }

// FitsMVI reports whether v is encodable as a move-immediate.
func (s *Spec) FitsMVI(v int32) bool {
	lo, hi := s.MVIRange()
	return v >= lo && v <= hi
}

// String returns the spec name.
func (s *Spec) String() string { return s.Name }

// D16 is the 16-bit instruction set: 16+16 registers, two-address,
// 5-bit ALU immediates, 9-bit move immediate, 7-bit word displacements
// (128 bytes), ±1024-instruction branches, PC-relative LDC literals with
// 4 KiB reach, implicit condition register r0.
func D16() *Spec {
	return &Spec{
		Name:           "D16/16/2",
		Enc:            EncD16,
		NumGPR:         16,
		NumFPR:         16,
		ThreeAddress:   false,
		ALUImmBits:     5,
		MVIBits:        9,
		HasMVHI:        false,
		HasLogicalImm:  false,
		HasCmpImm:      false,
		HasGTConds:     false,
		MemDispBits:    5, // 32 words = 128 bytes
		SubwordDisp:    false,
		HasLDC:         true,
		LDCRangeBytes:  4096,
		BranchRangeIns: 1024,
		HasJType:       false,
		R0Zero:         false,
		R0IsCC:         true,
		RdsrAny:        false,
	}
}

// DLXe is the 32-bit instruction set: 32+32 registers, three-address,
// 16-bit immediates and displacements, logical immediates, compare
// immediates and gt-form conditions, mvhi, 26-bit J-type jumps, and r0
// hardwired to zero.
func DLXe() *Spec {
	return &Spec{
		Name:           "DLXe/32/3",
		Enc:            EncDLXe,
		NumGPR:         32,
		NumFPR:         32,
		ThreeAddress:   true,
		ALUImmBits:     15, // addi/subi immediates kept non-negative; 16-bit field
		MVIBits:        16,
		HasMVHI:        true,
		HasLogicalImm:  true,
		HasCmpImm:      true,
		HasGTConds:     true,
		MemDispBits:    13, // 16-bit byte displacement = 2^13 words (positive half)
		SubwordDisp:    true,
		HasLDC:         false,
		LDCRangeBytes:  0,
		BranchRangeIns: 8191, // 16-bit signed byte offset / 4
		HasJType:       true,
		R0Zero:         true,
		R0IsCC:         false,
		RdsrAny:        true,
	}
}

// D16Plus is the variant the paper's Section 3.3.3 proposes but does not
// build: "Giving up one bit in the D16 MVI immediate field, one could
// implement an 8-bit move immediate and an 8-bit compare-equal immediate
// instruction, which could improve D16 performance by up to 2 percent."
// The ablate-d16plus experiment measures that claim.
func D16Plus() *Spec {
	s := D16()
	s.Name = "D16+/16/2"
	s.MVIBits = 8
	s.CmpImm8 = true
	return s
}

// RestrictRegs returns a copy of s with the visible register files reduced
// to n of each class (the paper's "DLXe restricted to a D16-sized register
// file"). The encoding is unchanged; only the compiler's freedom shrinks.
func RestrictRegs(s *Spec, n int) *Spec {
	c := *s
	c.NumGPR = n
	c.NumFPR = n
	c.Name = renameSpec(&c)
	return &c
}

// TwoAddress returns a copy of s restricted to two-address operation
// (destination register must equal the left source register).
func TwoAddress(s *Spec) *Spec {
	c := *s
	c.ThreeAddress = false
	c.Name = renameSpec(&c)
	return &c
}

func renameSpec(s *Spec) string {
	arity := 2
	if s.ThreeAddress {
		arity = 3
	}
	return fmt.Sprintf("%s/%d/%d", s.Enc, s.NumGPR, arity)
}

// PaperConfigs returns the five compiler configurations the paper
// evaluates, in the column order of its Tables 6 and 7:
// D16/16/2, DLXe/16/2, DLXe/16/3, DLXe/32/2, DLXe/32/3.
func PaperConfigs() []*Spec {
	return []*Spec{
		D16(),
		TwoAddress(RestrictRegs(DLXe(), 16)),
		RestrictRegs(DLXe(), 16),
		TwoAddress(DLXe()),
		DLXe(),
	}
}
