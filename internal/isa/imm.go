package isa

// ImmClass is an instruction's Table 4 class: whether its immediate
// operand fits D16's fields, and if not, which limit it exceeds. It is a
// static property of the instruction, so the predecoder classifies each
// instruction once and the run loop only counts classes.
type ImmClass uint8

const (
	ImmFits    ImmClass = iota // no immediate beyond D16's limits
	ImmCmp8                    // compare-immediate with a comparand in 0..255
	ImmCmp                     // any other compare-immediate
	ImmWideALU                 // ALU immediate beyond 5 unsigned bits (every logical immediate)
	ImmWideMem                 // memory displacement beyond D16's reach
	ImmWideMVI                 // move-immediate beyond 9 signed bits (and every mvhi)
	ImmFarCall                 // J-type jump or call (D16 uses a pool load + register jump)

	// NumImmClasses is the number of classes, for arrays indexed by
	// ImmClass.
	NumImmClasses
)

// ImmClassOf classifies in by the paper's Table 4 rule, measured on a
// DLXe execution. It is the rule's one source.
func ImmClassOf(in Instr) ImmClass {
	switch {
	case in.Op == CMP && in.HasImm:
		if in.Imm >= 0 && in.Imm <= 255 {
			return ImmCmp8
		}
		return ImmCmp
	case in.Op == MVI && (in.Imm < -256 || in.Imm > 255), in.Op == MVHI:
		return ImmWideMVI
	case in.Op == ANDI || in.Op == ORI || in.Op == XORI:
		return ImmWideALU
	case (in.Op == ADDI || in.Op == SUBI) && (in.Imm < 0 || in.Imm > 31):
		return ImmWideALU
	case in.Op.IsLoad() || in.Op.IsStore():
		// Word accesses reach 0..124; sub-word ones take no displacement.
		word := in.Op == LD || in.Op == ST
		if word && (in.Imm < 0 || in.Imm > 124) || !word && in.Imm != 0 {
			return ImmWideMem
		}
	case (in.Op == J || in.Op == JL) && in.HasImm:
		return ImmFarCall
	}
	return ImmFits
}
