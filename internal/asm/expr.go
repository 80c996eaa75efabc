package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Mod adjusts how a symbolic expression value is materialized.
type Mod uint8

const (
	NoMod Mod = iota
	Lo16      // lo16(x): low 16 bits of the value
	Hi16      // hi16(x): high 16 bits of the value
	GPRel     // gprel(x): value - DataBase (displacement off gp)
)

var modNames = [...]string{Lo16: "lo16", Hi16: "hi16", GPRel: "gprel"}

// Expr is a linked value: an optional symbol plus a constant offset, under
// an optional modifier. This covers everything the code generator and
// runtime library need: plain constants, symbol addresses, symbol+offset,
// and the lo16/hi16/gprel relocation forms.
type Expr struct {
	Mod Mod
	Sym string
	Off int64
}

func (e Expr) String() string { return string(e.appendTo(nil)) }

func (e Expr) appendTo(b []byte) []byte {
	if e.Mod != NoMod {
		b = append(append(b, modNames[e.Mod]...), '(')
	}
	switch {
	case e.Sym == "":
		b = strconv.AppendInt(b, e.Off, 10)
	case e.Off == 0:
		b = append(b, e.Sym...)
	case e.Off > 0:
		b = strconv.AppendInt(append(append(b, e.Sym...), '+'), e.Off, 10)
	default:
		b = strconv.AppendInt(append(b, e.Sym...), e.Off, 10)
	}
	if e.Mod != NoMod {
		b = append(b, ')')
	}
	return b
}

// isConst reports whether the expression needs no symbol resolution.
func (e Expr) isConst() bool { return e.Sym == "" }

// eval computes the expression's value given a symbol resolver.
func (e Expr) eval(lookup func(string) (uint32, bool)) (int64, error) {
	v := e.Off
	if e.Sym != "" {
		a, ok := lookup(e.Sym)
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", e.Sym)
		}
		v += int64(a)
	}
	switch e.Mod {
	case Lo16:
		v = int64(uint32(v) & 0xFFFF)
	case Hi16:
		v = int64(uint32(v) >> 16)
	case GPRel:
		v -= int64(isa.DataBase)
	}
	return v, nil
}

// parseExpr parses one expression operand:
//
//	expr    := [mod "("] term { ("+"|"-") number } [")"]
//	term    := number | charlit | symbol
//	number  := ["-"] (decimal | 0x hex)
//	charlit := 'c' with the usual escapes
func parseExpr(s string) (Expr, error) {
	s = strings.TrimSpace(s)
	var e Expr
	for m := Lo16; m <= GPRel; m++ {
		if inner, ok := strings.CutPrefix(s, modNames[m]+"("); ok && strings.HasSuffix(inner, ")") {
			e.Mod, s = m, strings.TrimSuffix(inner, ")")
			break
		}
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return e, fmt.Errorf("empty expression")
	}

	// Split off trailing +n / -n adjustments (right to left is fine since
	// only integer adjustments are allowed after the leading term).
	term := s
	var adjust int64
	for {
		i := strings.LastIndexAny(term, "+-")
		if i <= 0 {
			break
		}
		// A '-' that is part of a leading negative number has index 0 and
		// is excluded by i <= 0. Anything else splits term and offset.
		numPart := term[i:]
		n, err := strconv.ParseInt(strings.Replace(numPart, "+", "", 1), 0, 64)
		if err != nil {
			return e, fmt.Errorf("bad offset %q in expression %q", numPart, s)
		}
		adjust += n
		term = term[:i]
	}
	term = strings.TrimSpace(term)

	switch {
	case term == "":
		return e, fmt.Errorf("bad expression %q", s)
	case term[0] == '\'':
		c, err := parseCharLit(term)
		if err != nil {
			return e, err
		}
		e.Off = int64(c) + adjust
	case term[0] == '-' || (term[0] >= '0' && term[0] <= '9'):
		n, err := strconv.ParseInt(term, 0, 64)
		if err != nil {
			return e, fmt.Errorf("bad number %q", term)
		}
		e.Off = n + adjust
	default:
		if !validSymbol(term) {
			return e, fmt.Errorf("bad symbol name %q", term)
		}
		e.Sym, e.Off = term, adjust
	}
	return e, nil
}

// validSymbol reports whether s can name a label. A register name (r4,
// f2, sp) cannot: an operand spelled that way reads as the register.
func validSymbol(s string) bool {
	if _, isReg := parseReg(s); isReg {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.' || c == '$':
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// escapes pairs each byte a quoted literal spells with a backslash with
// the letter that follows the backslash. The parser's unescape and the
// printer's quote both read it.
var escapes = [...][2]byte{{'\n', 'n'}, {'\t', 't'}, {'\r', 'r'}, {0, '0'}, {'\\', '\\'}, {'"', '"'}, {'\'', '\''}}

// unescape returns the byte a backslash followed by letter stands for.
func unescape(letter byte) (byte, bool) {
	for _, e := range escapes {
		if e[1] == letter {
			return e[0], true
		}
	}
	return 0, false
}

func parseCharLit(s string) (byte, error) {
	if len(s) < 3 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return 0, fmt.Errorf("bad character literal %q", s)
	}
	body := s[1 : len(s)-1]
	if body[0] != '\\' {
		if len(body) != 1 {
			return 0, fmt.Errorf("bad character literal %q", s)
		}
		return body[0], nil
	}
	if len(body) != 2 {
		return 0, fmt.Errorf("bad escape %q", s)
	}
	if c, ok := unescape(body[1]); ok {
		return c, nil
	}
	return 0, fmt.Errorf("unknown escape %q", s)
}

// unquoteString decodes a double-quoted .ascii/.asciiz argument.
func unquoteString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash in %s", s)
		}
		c, ok := unescape(body[i])
		if !ok {
			return "", fmt.Errorf("unknown escape \\%c in %s", body[i], s)
		}
		b.WriteByte(c)
	}
	return b.String(), nil
}

// appendQuoted appends s as a double-quoted literal unquoteString reads
// back.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
next:
	for i := 0; i < len(s); i++ {
		for _, e := range escapes {
			if e[0] == s[i] && e[0] != '\'' {
				b = append(b, '\\', e[1])
				continue next
			}
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}
