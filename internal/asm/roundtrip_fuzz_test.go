package asm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mcc"
)

// FuzzAsmRoundTrip holds Parse and Format to being inverses: any text
// that parses prints to text that parses back to equal statements
// (source lines aside), and both texts assemble to the same image, or
// both fail, on D16 and DLXe.
//
// It lives in package asm_test so it can seed from mcc's runtime
// library, which imports asm. The other seeds are every string literal
// in this package's tests, which includes their assembly sources.
func FuzzAsmRoundTrip(f *testing.F) {
	for _, spec := range append(isa.PaperConfigs(), isa.D16Plus()) {
		f.Add(mcc.RuntimeSource(spec))
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					f.Add(s)
				}
			}
			return true
		})
	}

	specs := []*isa.Spec{isa.D16(), isa.DLXe()}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := asm.Parse("in.s", src)
		if err != nil {
			return
		}
		text := asm.Format(stmts)
		again, err := asm.Parse("out.s", text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(withoutLines(stmts), withoutLines(again)) {
			t.Fatalf("statements change across print and parse:\n%#v\n%#v", stmts, again)
		}
		for _, spec := range specs {
			want, werr := asm.Assemble("in.s", src, spec)
			got, gerr := asm.Assemble("out.s", text, spec)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: source assembles with %v, printed text with %v", spec, werr, gerr)
			}
			if werr == nil && !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: printed text assembles to a different image", spec)
			}
		}
	})
}

func withoutLines(stmts []asm.Stmt) []asm.Stmt {
	out := make([]asm.Stmt, len(stmts))
	for i, s := range stmts {
		s.Line = 0
		out[i] = s
	}
	return out
}
