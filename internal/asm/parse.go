package asm

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
)

// errList collects one unit's diagnostics as "file:line: message".
type errList struct {
	file string
	errs []error
}

func (l *errList) errf(line int, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s:%d: %s", l.file, line, fmt.Sprintf(format, args...)))
}

// err joins the first 20 diagnostics, or returns nil when there are none.
func (l *errList) err() error {
	const max = 20
	errs := l.errs
	if len(errs) > max {
		errs = append(errs[:max:max], fmt.Errorf("... and %d more errors", len(l.errs)-max))
	}
	return errors.Join(errs...)
}

// Parse reads assembly text into statements, each carrying its source
// line. It is the one reader of the syntax: labels ("name:", several may
// lead a line), directives, instructions and ;/# comments.
func Parse(file, src string) ([]Stmt, error) {
	p := &errList{file: file}
	lines := strings.Split(src, "\n")
	stmts := make([]Stmt, 0, len(lines))
	for i, raw := range lines {
		stmts = parseLine(p, stmts, i+1, raw)
	}
	return stmts, p.err()
}

func parseLine(p *errList, stmts []Stmt, lineNo int, raw string) []Stmt {
	line := strings.TrimSpace(stripComment(raw))
	for {
		i := strings.Index(line, ":")
		if i < 0 {
			break
		}
		name := strings.TrimSpace(line[:i])
		if !validSymbol(name) {
			break
		}
		stmts = append(stmts, Stmt{Kind: LabelStmt, Line: lineNo, Name: name})
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return stmts
	}
	name, rest, _ := strings.Cut(line, " ")
	s := Stmt{Kind: InstrStmt, Line: lineNo}
	switch name {
	case ".ascii", ".asciiz":
		str, err := unquoteString(rest)
		if err != nil {
			p.errf(lineNo, "%v", err)
			return stmts
		}
		return append(stmts, Stmt{Kind: DirStmt, Line: lineNo, Name: name, Str: str})
	case "call":
		s.Pseudo = Call
	case "ret":
		s.Pseudo = Ret
	case "la", "li":
		s.Pseudo = LA
	case "b":
		s.Op = isa.BR
	default:
		if name[0] == '.' {
			s.Kind, s.Name = DirStmt, name
			break
		}
		op, cond, ok := mnemonic(name)
		if !ok {
			p.errf(lineNo, "unknown mnemonic %q", name)
			return stmts
		}
		s.Op, s.Cond = op, cond
	}
	for _, a := range splitOperands(rest) {
		var op Operand
		var err error
		if s.Kind == DirStmt {
			op.Kind = ExprOp
			op.E, err = parseExpr(a)
		} else {
			op, err = parseOperand(a)
		}
		if err != nil {
			p.errf(lineNo, "%v", err)
			return stmts
		}
		s.Args = append(s.Args, op)
	}
	return append(stmts, s)
}

var regAliases = map[string]isa.Reg{
	"lr": isa.RegLink,
	"sp": isa.RegSP,
	"gp": isa.RegGP,
}

func parseReg(s string) (isa.Reg, bool) {
	if r, ok := regAliases[s]; ok {
		return r, true
	}
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'f') {
		return isa.NoReg, false
	}
	n := 0
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return isa.NoReg, false
		}
		n = n*10 + int(c-'0')
		if n > 31 {
			return isa.NoReg, false
		}
	}
	if s[0] == 'f' {
		return isa.F(n), true
	}
	return isa.R(n), true
}

func parseOperand(s string) (Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	if r, ok := parseReg(s); ok {
		return Operand{Kind: RegOp, Reg: r}, nil
	}
	if s[0] == '=' {
		e, err := parseExpr(s[1:])
		return Operand{Kind: LitOp, E: e}, err
	}
	// expr(reg) memory form: find a trailing "(reg)" that is not part of a
	// lo16(...)-style modifier call.
	if strings.HasSuffix(s, ")") {
		if i := strings.LastIndex(s, "("); i >= 0 {
			if r, ok := parseReg(strings.TrimSpace(s[i+1 : len(s)-1])); ok {
				dispStr := strings.TrimSpace(s[:i])
				var disp Expr
				var err error
				if dispStr != "" {
					disp, err = parseExpr(dispStr)
				}
				return Operand{Kind: MemOp, Reg: r, E: disp}, err
			}
		}
	}
	e, err := parseExpr(s)
	return Operand{Kind: ExprOp, E: e}, err
}

// splitOperands splits on top-level commas (commas never appear inside the
// supported operand forms except within character literals).
func splitOperands(s string) []string {
	var out []string
	depth := 0
	inChar := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inChar:
			if c == '\'' && s[i-1] != '\\' {
				inChar = false
			}
		case c == '\'':
			inChar = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if strings.TrimSpace(s[start:]) != "" || len(out) > 0 {
		out = append(out, s[start:])
	}
	return out
}

// stripComment removes ; or # comments, respecting string and character
// literals.
func stripComment(line string) string {
	inStr, inChar := false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inStr:
			if c == '"' && line[i-1] != '\\' {
				inStr = false
			}
		case inChar:
			if c == '\'' && line[i-1] != '\\' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == ';' || c == '#':
			return line[:i]
		}
	}
	return line
}

// mnemonic resolves an instruction mnemonic, which may carry a condition
// suffix (cmp.lt, cmp.sf.le) or be an operation whose name itself contains
// a dot (add.sf, si2sf).
func mnemonic(tok string) (isa.Op, isa.Cond, bool) {
	if op := isa.OpByName(tok); op != isa.BAD {
		return op, isa.CondNone, true
	}
	if i := strings.LastIndex(tok, "."); i > 0 {
		base, suffix := tok[:i], tok[i+1:]
		if op := isa.OpByName(base); op != isa.BAD {
			if c := isa.CondByName(suffix); c != isa.CondNone {
				return op, c, true
			}
		}
	}
	return isa.BAD, isa.CondNone, false
}
