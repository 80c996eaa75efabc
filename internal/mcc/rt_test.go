package mcc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Runtime-library edge cases: the software multiply/divide routines
// against Go's semantics at the boundaries.

func TestRuntimeMultiplyEdges(t *testing.T) {
	cases := [][2]int32{
		{0, 0}, {0, 5}, {5, 0}, {1, -1}, {-1, -1},
		{46341, 46341},    // overflows int32
		{-2147483648, 1},  // INT_MIN
		{-2147483648, -1}, // wraps to INT_MIN
		{2147483647, 2},   // wraps
		{65535, 65537},    // 2^32 - 1 -> wraps to -1... (65535*65537 = 2^32-1)
		{715827883, 3},    // wraps near +2^31
		{-715827883, -3},
	}
	var src, want string
	for _, c := range cases {
		src += fmt.Sprintf("\tprint_int((%d) * (%d)); print_char(' ');\n", c[0], c[1])
		want += fmt.Sprintf("%d ", c[0]*c[1])
	}
	program := "int main() {\n" + src + "\treturn 0;\n}"
	// Constant folding would compute these at compile time; the exact
	// fold must STILL match Go semantics, and the runtime path is forced
	// via variables below.
	checkAllConfigs(t, "mul-folded", program, want)

	// Locals initialized with constants would fold too; reading the
	// operands back from a global array forces the runtime __mul path.
	var src3 string
	src3 = "int vals[24];\nint main() {\n"
	for i, c := range cases {
		src3 += fmt.Sprintf("\tvals[%d] = %d; vals[%d] = %d;\n", 2*i, c[0], 2*i+1, c[1])
	}
	src3 += fmt.Sprintf("\tint i;\n\tfor (i = 0; i < %d; i++) {\n", len(cases))
	src3 += "\t\tprint_int(vals[2*i] * vals[2*i+1]); print_char(' ');\n\t}\n\treturn 0;\n}"
	checkAllConfigs(t, "mul-runtime", src3, want)
}

func TestRuntimeDivideEdges(t *testing.T) {
	cases := [][2]int32{
		{7, 2}, {-7, 2}, {7, -2}, {-7, -2},
		{0, 5}, {5, 1}, {5, -1},
		{2147483647, 1}, {2147483647, 2147483647},
		{-2147483647, 3}, {1, 2147483647},
		{1000000, 999}, {999, 1000000},
	}
	var want string
	src := "int vals[26];\nint main() {\n"
	for i, c := range cases {
		src += fmt.Sprintf("\tvals[%d] = %d; vals[%d] = %d;\n", 2*i, c[0], 2*i+1, c[1])
		want += fmt.Sprintf("%d %d ", c[0]/c[1], c[0]%c[1])
	}
	src += fmt.Sprintf("\tint i;\n\tfor (i = 0; i < %d; i++) {\n", len(cases))
	src += "\t\tprint_int(vals[2*i] / vals[2*i+1]); print_char(' ');\n"
	src += "\t\tprint_int(vals[2*i] % vals[2*i+1]); print_char(' ');\n\t}\n\treturn 0;\n}"
	checkAllConfigs(t, "div-runtime", src, want)
}

func TestRuntimeSourceAssemblesForAllConfigs(t *testing.T) {
	for _, spec := range append(isa.PaperConfigs(), isa.D16Plus()) {
		src := RuntimeSource(spec)
		if src == "" {
			t.Fatalf("%s: empty runtime", spec)
		}
		// Compile appends its statements to the runtime's, and GenAsm
		// prints the runtime as written: line i of GenAsm's text is
		// statement i only while every runtime line holds one statement.
		stmts, err := asm.Parse("rt.s", src)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for i, s := range stmts {
			if s.Line != i+1 {
				t.Fatalf("%s: runtime statement %d (%s) is on line %d", spec, i, s, s.Line)
			}
		}
		if n := strings.Count(src, "\n"); len(stmts) != n {
			t.Errorf("%s: runtime has %d lines but %d statements", spec, n, len(stmts))
		}
		// The runtime is included in every compile; a trivial program
		// exercises its assembly.
		if _, err := Compile("t.mc", "int main() { return 0; }", spec); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}
