// Package mcc is the MC compiler: an optimizing compiler for a small
// C-like language with one parameterized backend targeting both the D16
// and DLXe instruction sets.
//
// It plays the role GCC 2.1 plays in the paper: the same compilation,
// optimization and register-allocation technology drives every target,
// and the paper's instruction-set features (register-file size, two- vs.
// three-address operations, immediate and displacement field widths) are
// code-generation parameters (isa.Spec), so measured density and
// path-length differences between configurations isolate encoding
// effects, exactly as in Section 3.3 of the paper.
//
// MC is C without structs, typedefs or the preprocessor: int/char/float/
// double scalars, pointers, one-dimensional arrays, functions, control
// flow (if/else, while, do-while, for, break/continue, return), the full
// C expression grammar (including assignment operators, ++/--, &&/||
// with short-circuit evaluation), string literals, and global
// initializers. Built-in functions print_int, print_char, print_str and
// print_double map to simulator traps.
package mcc

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokStrLit
	TokCharLit

	// Keywords.
	TokInt
	TokChar
	TokFloat
	TokDouble
	TokVoid
	TokIf
	TokElse
	TokWhile
	TokDo
	TokFor
	TokReturn
	TokBreak
	TokContinue

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokSemi
	TokComma

	TokAssign    // =
	TokPlusEq    // +=
	TokMinusEq   // -=
	TokStarEq    // *=
	TokSlashEq   // /=
	TokPercentEq // %=
	TokAmpEq     // &=
	TokPipeEq    // |=
	TokCaretEq   // ^=
	TokShlEq     // <<=
	TokShrEq     // >>=

	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAmp
	TokPipe
	TokCaret
	TokShl
	TokShr
	TokTilde
	TokBang
	TokAndAnd
	TokOrOr
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokInc // ++
	TokDec // --
)

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokIntLit: "integer literal",
	TokFloatLit: "float literal", TokStrLit: "string literal", TokCharLit: "char literal",
	TokInt: "int", TokChar: "char", TokFloat: "float", TokDouble: "double",
	TokVoid: "void", TokIf: "if", TokElse: "else", TokWhile: "while",
	TokDo: "do", TokFor: "for", TokReturn: "return", TokBreak: "break",
	TokContinue: "continue",
	TokLParen:   "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokAssign: "=", TokPlusEq: "+=", TokMinusEq: "-=", TokStarEq: "*=",
	TokSlashEq: "/=", TokPercentEq: "%=", TokAmpEq: "&=", TokPipeEq: "|=",
	TokCaretEq: "^=", TokShlEq: "<<=", TokShrEq: ">>=",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
	TokAmp: "&", TokPipe: "|", TokCaret: "^", TokShl: "<<", TokShr: ">>",
	TokTilde: "~", TokBang: "!", TokAndAnd: "&&", TokOrOr: "||",
	TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokInc: "++", TokDec: "--",
}

// String returns the token kind's display name.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", uint8(k))
}

// compoundOp maps a compound assignment to its binary operator.
var compoundOp = map[TokKind]TokKind{
	TokPlusEq: TokPlus, TokMinusEq: TokMinus, TokStarEq: TokStar,
	TokSlashEq: TokSlash, TokPercentEq: TokPercent, TokAmpEq: TokAmp,
	TokPipeEq: TokPipe, TokCaretEq: TokCaret, TokShlEq: TokShl,
	TokShrEq: TokShr,
}

var keywords = map[string]TokKind{
	"int": TokInt, "char": TokChar, "float": TokFloat, "double": TokDouble,
	"void": TokVoid, "if": TokIf, "else": TokElse, "while": TokWhile,
	"do": TokDo, "for": TokFor, "return": TokReturn, "break": TokBreak,
	"continue": TokContinue,
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string  // identifier / literal spelling
	Int  int64   // TokIntLit, TokCharLit value
	Flt  float64 // TokFloatLit value
	Str  string  // TokStrLit decoded content
	Line int
	Col  int
}

// Pos identifies a source position for diagnostics.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a compiler diagnostic.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg) }
