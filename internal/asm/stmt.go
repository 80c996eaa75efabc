package asm

import "repro/internal/isa"

// StmtKind says which of the three statement forms a Stmt is.
type StmtKind uint8

const (
	InstrStmt StmtKind = iota // an instruction or pseudo-instruction
	LabelStmt                 // "name:"
	DirStmt                   // a directive with its values
)

// Pseudo names a pseudo-instruction the assembler expands per target.
type Pseudo uint8

const (
	NoPseudo Pseudo = iota
	Call            // call sym: the target's call sequence
	Ret             // ret: jump through the link register
	LA              // la/li rd, expr: the target's materialization sequence
)

var pseudoNames = [...]string{Call: "call", Ret: "ret", LA: "la"}

// Stmt is one assembly statement: the unit both producers of assembly
// (Parse, for hand-written text, and the compiler's emitter) hand to
// AssembleStmts, and the unit Format prints, one per line.
type Stmt struct {
	Kind StmtKind
	// Op and Cond are an instruction's operation and condition suffix;
	// Pseudo, when set, replaces them.
	Op     isa.Op
	Cond   isa.Cond
	Pseudo Pseudo
	// Line is the source line for diagnostics. Zero numbers the
	// statement by its position: statement i is line i+1, the line it
	// prints on.
	Line int
	// Name is a label's name, or a directive's with its dot (".word").
	Name string
	// Args are an instruction's operands, or a directive's values (each
	// an ExprOp).
	Args []Operand
	// Str is the decoded text of .ascii and .asciiz.
	Str string
}

// OperandKind says which operand form an Operand is.
type OperandKind uint8

const (
	RegOp  OperandKind = iota // a register
	ExprOp                    // an expression
	MemOp                     // disp(reg)
	LitOp                     // =expr, a literal-pool reference
)

// Operand is one instruction operand or directive value.
type Operand struct {
	Kind OperandKind
	Reg  isa.Reg // RegOp, and the base register of MemOp
	E    Expr    // ExprOp, LitOp, and the displacement of MemOp
}

// mnemonic is the instruction's name as written: a pseudo, or the
// operation with its condition suffix (cmp.lt, cmp.sf.le).
func (s *Stmt) mnemonic() string {
	if s.Pseudo != NoPseudo {
		return pseudoNames[s.Pseudo]
	}
	if s.Cond != isa.CondNone {
		return s.Op.String() + "." + s.Cond.String()
	}
	return s.Op.String()
}

// String prints the statement as one line of assembly, which Parse
// reads back to an equal statement.
func (s Stmt) String() string { return string(s.appendTo(nil)) }

// Format prints statements one per line: statement i is line i+1.
func Format(stmts []Stmt) string {
	var b []byte
	for i := range stmts {
		b = append(stmts[i].appendTo(b), '\n')
	}
	return string(b)
}

func (s *Stmt) appendTo(b []byte) []byte {
	switch s.Kind {
	case LabelStmt:
		return append(append(b, s.Name...), ':')
	case DirStmt:
		b = append(append(b, '\t'), s.Name...)
		if s.Name == ".ascii" || s.Name == ".asciiz" {
			return appendQuoted(append(b, ' '), s.Str)
		}
	default:
		b = append(append(b, '\t'), s.mnemonic()...)
	}
	for i, a := range s.Args {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		b = a.appendTo(b)
	}
	return b
}

func (o Operand) appendTo(b []byte) []byte {
	switch o.Kind {
	case RegOp:
		return append(b, o.Reg.String()...)
	case MemOp:
		return append(append(append(o.E.appendTo(b), '('), o.Reg.String()...), ')')
	case LitOp:
		b = append(b, '=')
	}
	return o.E.appendTo(b)
}
