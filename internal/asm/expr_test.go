package asm

import (
	"testing"
	"testing/quick"
)

func TestParseExprForms(t *testing.T) {
	cases := []struct {
		in   string
		sym  string
		off  int64
		mod  Mod
		fail bool
	}{
		{in: "42", off: 42},
		{in: "-42", off: -42},
		{in: "0x10", off: 16},
		{in: "'A'", off: 65},
		{in: `'\n'`, off: 10},
		{in: "foo", sym: "foo"},
		{in: "foo+4", sym: "foo", off: 4},
		{in: "foo-8", sym: "foo", off: -8},
		{in: "foo+4-2", sym: "foo", off: 2},
		{in: "lo16(foo+4)", sym: "foo", off: 4, mod: Lo16},
		{in: "hi16(bar)", sym: "bar", mod: Hi16},
		{in: "gprel(baz-4)", sym: "baz", off: -4, mod: GPRel},
		{in: "", fail: true},
		{in: "foo+bar", fail: true},
		{in: "12abc", fail: true},
		{in: "+", fail: true},
	}
	for _, tc := range cases {
		e, err := parseExpr(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("parseExpr(%q) should fail", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExpr(%q): %v", tc.in, err)
			continue
		}
		if e.Sym != tc.sym || e.Off != tc.off || e.Mod != tc.mod {
			t.Errorf("parseExpr(%q) = %+v", tc.in, e)
		}
	}
}

// Property: String/parseExpr round trip for symbol+offset expressions.
func TestExprStringRoundTrip(t *testing.T) {
	f := func(off int32, useSym bool, mod uint8) bool {
		e := Expr{Off: int64(off)}
		if useSym {
			e.Sym = "sym"
		}
		e.Mod = Mod(mod % 4)
		got, err := parseExpr(e.String())
		if err != nil {
			return false
		}
		return got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExprEval(t *testing.T) {
	lookup := func(s string) (uint32, bool) {
		if s == "x" {
			return 0x41000, true
		}
		return 0, false
	}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Expr{Sym: "x", Off: 8}, 0x41008},
		{Expr{Sym: "x", Mod: GPRel}, 0x1000},
		{Expr{Sym: "x", Mod: Lo16}, 0x1000},
		{Expr{Sym: "x", Mod: Hi16}, 0x4},
		{Expr{Off: -3}, -3},
	}
	for _, tc := range cases {
		v, err := tc.e.eval(lookup)
		if err != nil {
			t.Errorf("eval(%v): %v", tc.e, err)
			continue
		}
		if v != tc.want {
			t.Errorf("eval(%v) = %#x, want %#x", tc.e, v, tc.want)
		}
	}
	if _, err := (Expr{Sym: "ghost"}).eval(lookup); err == nil {
		t.Error("undefined symbol must fail")
	}
}

func TestUnquoteString(t *testing.T) {
	cases := map[string]string{
		`"plain"`:       "plain",
		`"a\nb"`:        "a\nb",
		`"tab\there"`:   "tab\there",
		`"q\"q"`:        `q"q`,
		`"null\0end"`:   "null\x00end",
		`"back\\slash"`: `back\slash`,
		`"cr\r"`:        "cr\r",
	}
	for in, want := range cases {
		got, err := unquoteString(in)
		if err != nil {
			t.Errorf("unquoteString(%s): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("unquoteString(%s) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{`"unterminated`, `noquotes`, `"bad\q"`, `"trail\"`} {
		if _, err := unquoteString(bad); err == nil {
			t.Errorf("unquoteString(%s) should fail", bad)
		}
	}
}
