package mcc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
)

// runMC compiles and runs an MC program under one config, returning its
// output.
func runMC(t *testing.T, src string, spec *isa.Spec) (string, *sim.Machine, *Compiled) {
	t.Helper()
	c, err := Compile("test.mc", src, spec)
	if err != nil {
		t.Fatalf("compile(%s): %v", spec, err)
	}
	m, err := sim.New(c.Image)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("run(%s): %v", spec, err)
	}
	return m.Output.String(), m, c
}

// checkAllConfigs runs the program under all five paper configurations
// and requires identical, expected output.
func checkAllConfigs(t *testing.T, name, src, want string) {
	t.Helper()
	for _, spec := range isa.PaperConfigs() {
		got, _, _ := runMC(t, src, spec)
		if got != want {
			t.Errorf("%s on %s: output %q, want %q", name, spec, got, want)
		}
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	src := `
int main() {
	int a = 7, b = 3;
	print_int(a + b * 2);      print_char(' ');
	print_int((a + b) * 2);    print_char(' ');
	print_int(a - b - 1);      print_char(' ');
	print_int(a % b);          print_char(' ');
	print_int(a / b);          print_char(' ');
	print_int(-a);             print_char(' ');
	print_int(a << 2);         print_char(' ');
	print_int(a >> 1);         print_char(' ');
	print_int(~a);             print_char(' ');
	print_int(a & b);          print_char(' ');
	print_int(a | b);          print_char(' ');
	print_int(a ^ b);
	return 0;
}`
	checkAllConfigs(t, "arith", src, "13 20 3 1 2 -7 28 3 -8 3 7 4")
}

func TestMulDivRuntime(t *testing.T) {
	src := `
int main() {
	print_int(123 * 456);      print_char(' ');
	int a = 12345, b = -67;
	print_int(a * b);          print_char(' ');
	print_int(a / b);          print_char(' ');
	print_int(a % b);          print_char(' ');
	print_int((0-a) / b);      print_char(' ');
	print_int((0-a) % b);      print_char(' ');
	print_int(b / a);          print_char(' ');
	print_int(7 / 0 + 9 % 0);  /* division by zero yields 0 */
	return 0;
}`
	checkAllConfigs(t, "muldiv", src, "56088 -827115 -184 17 184 -17 0 0")
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps++;
	}
	return steps;
}
int main() {
	print_int(collatz(27));
	print_char(' ');
	int s = 0, i;
	for (i = 0; i < 100; i++) {
		if (i % 3 == 0) continue;
		if (i > 50) break;
		s += i;
	}
	print_int(s);
	print_char(' ');
	int d = 0;
	do { d++; } while (d < 5);
	print_int(d);
	return 0;
}`
	// s = sum of 1..50 excluding multiples of 3 (i=51 is a multiple of 3,
	// so the break fires at i=52): 1275 - 408 = 867.
	checkAllConfigs(t, "control", src, "111 867 5")
}

func TestLogicalOperators(t *testing.T) {
	src := `
int calls;
int truthy() { calls++; return 1; }
int main() {
	calls = 0;
	if (0 && truthy()) print_int(99);
	print_int(calls); print_char(' ');
	if (1 || truthy()) print_int(calls); print_char(' ');
	int x = (3 < 5) + (5 < 3);
	print_int(x); print_char(' ');
	print_int(!x); print_char(' ');
	print_int(2 > 1 && 3 >= 3 && 1 != 2);
	return 0;
}`
	checkAllConfigs(t, "logic", src, "0 0 1 0 1")
}

func TestArraysAndPointers(t *testing.T) {
	src := `
int arr[10];
char msg[16] = "hi there";
int main() {
	int i;
	for (i = 0; i < 10; i++) arr[i] = i * i;
	int sum = 0;
	int *p = arr;
	for (i = 0; i < 10; i++) sum += *(p + i);
	print_int(sum); print_char(' ');
	print_int(arr[7]); print_char(' ');
	char *s = msg;
	int len = 0;
	while (s[len]) len++;
	print_int(len); print_char(' ');
	print_str(msg); print_char(' ');
	msg[0] = 'H';
	print_str(&msg[0]);
	return 0;
}`
	checkAllConfigs(t, "arrays", src, "285 49 8 hi there Hi there")
}

func TestLocalArraysAndDeepFrames(t *testing.T) {
	// Local arrays force frame addressing; the 260-element array exceeds
	// the D16 124-byte direct window.
	src := `
int sum(int n) {
	int buf[260];
	int i;
	for (i = 0; i < n; i++) buf[i] = i + 1;
	int s = 0;
	for (i = 0; i < n; i++) s += buf[i];
	return s;
}
int main() {
	print_int(sum(260));
	return 0;
}`
	checkAllConfigs(t, "frames", src, "33930")
}

func TestRecursion(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int ack(int m, int n) {
	if (m == 0) return n + 1;
	if (n == 0) return ack(m - 1, 1);
	return ack(m - 1, ack(m, n - 1));
}
int main() {
	print_int(fib(15)); print_char(' ');
	print_int(ack(2, 3));
	return 0;
}`
	checkAllConfigs(t, "recursion", src, "610 9")
}

func TestDoubles(t *testing.T) {
	src := `
double square(double x) { return x * x; }
int main() {
	double a = 1.5, b = 2.25;
	print_double(a + b);     print_char(' ');
	print_double(a * b);     print_char(' ');
	print_double(square(a)); print_char(' ');
	print_double(b / a);     print_char(' ');
	print_double(-a);        print_char(' ');
	print_int(a < b);        print_char(' ');
	print_int(a == 1.5);     print_char(' ');
	int n = 7;
	double d = n;            /* int -> double */
	print_double(d / 2.0);   print_char(' ');
	print_int((int)(d * 10.0)); /* double -> int */
	return 0;
}`
	checkAllConfigs(t, "doubles", src, "3.75 3.375 2.25 1.5 -1.5 1 1 3.5 70")
}

func TestFloats(t *testing.T) {
	src := `
float half(float x) { return x / 2.0; }
int main() {
	float f = 5.5;
	print_double(half(f));
	print_char(' ');
	float g = f + 0.25;
	print_int(g > f);
	return 0;
}`
	checkAllConfigs(t, "floats", src, "2.75 1")
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int table[6] = {10, 20, 30};
int seed = 42;
double pi = 3.25;
char c = 'A';
int main() {
	print_int(table[0] + table[1] + table[2] + table[3]);
	print_char(' ');
	print_int(seed); print_char(' ');
	print_double(pi); print_char(' ');
	print_char(c);
	return 0;
}`
	checkAllConfigs(t, "ginit", src, "60 42 3.25 A")
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	src := `
int main() {
	int x = 10;
	x += 5; x -= 2; x *= 3; x /= 2; x %= 10;
	print_int(x); print_char(' ');
	x = 3;
	x <<= 2; x |= 1; x ^= 2; x &= 14;
	print_int(x); print_char(' ');
	int a[3]; a[0] = 1; a[1] = 2;
	int i = 0;
	a[i++] += 10;
	print_int(a[0]); print_char(' ');
	print_int(i); print_char(' ');
	print_int(i++ + ++i);
	print_char(' ');
	print_int(i);
	return 0;
}`
	// x: 10+5-2=13, *3=39, /2=19, %10=9. Then 3<<2=12, |1=13, ^2=15, &14=14.
	checkAllConfigs(t, "compound", src, "9 14 11 1 4 3")
}

func TestManyLocals(t *testing.T) {
	// More simultaneously-live values than D16 has registers: forces
	// spilling on the 16-register configs.
	var b []byte
	b = append(b, "int seed = 3;\nint main() {\n"...)
	for i := 0; i < 24; i++ {
		b = append(b, fmt.Sprintf("\tint v%d = seed + %d;\n", i, i*3+1)...)
	}
	b = append(b, "\tint s = 0;\n"...)
	for i := 0; i < 24; i++ {
		b = append(b, fmt.Sprintf("\ts += v%d * v%d;\n", i, (i+7)%24)...)
	}
	b = append(b, "\tprint_int(s);\n\treturn 0;\n}\n"...)
	src := string(b)

	var first string
	for _, spec := range isa.PaperConfigs() {
		got, _, _ := runMC(t, src, spec)
		if first == "" {
			first = got
			continue
		}
		if got != first {
			t.Errorf("many-locals on %s: %q differs from %q", spec, got, first)
		}
	}
	// The 16-register configs must spill where DLXe/32 need not.
	_, _, c16 := runMC(t, src, isa.D16())
	_, _, c32 := runMC(t, src, isa.DLXe())
	if c16.Spills <= c32.Spills {
		t.Errorf("expected more spills on D16 (%d) than DLXe/32 (%d)", c16.Spills, c32.Spills)
	}
}

func TestDensityAndPathLengthOrdering(t *testing.T) {
	src := `
int a[64];
int main() {
	int i, j, n = 64;
	for (i = 0; i < n; i++) a[i] = (n - i) * 3 % 101;
	for (i = 0; i < n - 1; i++)
		for (j = 0; j < n - 1 - i; j++)
			if (a[j] > a[j + 1]) {
				int t = a[j]; a[j] = a[j + 1]; a[j + 1] = t;
			}
	int s = 0;
	for (i = 0; i < n; i++) s += a[i] * i;
	print_int(s);
	return 0;
}`
	outs := map[string]string{}
	sizes := map[string]int{}
	paths := map[string]int64{}
	for _, spec := range isa.PaperConfigs() {
		got, m, c := runMC(t, src, spec)
		outs[spec.Name] = got
		sizes[spec.Name] = c.Image.Size()
		paths[spec.Name] = m.Stats.Instrs
	}
	for name, o := range outs {
		if o != outs["D16/16/2"] {
			t.Fatalf("output mismatch on %s: %q vs %q", name, o, outs["D16/16/2"])
		}
	}
	// The paper's central static result: D16 binaries are substantially
	// smaller; DLXe path lengths are shorter.
	ratio := float64(sizes["DLXe/32/3"]) / float64(sizes["D16/16/2"])
	if ratio < 1.2 || ratio > 2.0 {
		t.Errorf("density ratio DLXe/D16 = %.2f, expected within (1.2, 2.0); sizes=%v", ratio, sizes)
	}
	if paths["DLXe/32/3"] > paths["D16/16/2"] {
		t.Errorf("DLXe/32/3 path (%d) should not exceed D16 (%d)",
			paths["DLXe/32/3"], paths["D16/16/2"])
	}
}

// TestD16PlusVariant compiles representative programs for the paper's
// proposed D16+ encoding (8-bit mvi, 8-bit compare-equal immediate) and
// checks behavioural equivalence with base D16.
func TestD16PlusVariant(t *testing.T) {
	srcs := []string{
		`int main() {
			int i, hits = 0;
			for (i = 0; i < 300; i++) {
				if (i == 17) hits++;
				if (i == 200) hits += 2;   /* fits 8 bits */
				if (i == 299) hits += 4;   /* beyond 8 bits: materialized */
			}
			print_int(hits);
			int big = 255, neg = -128, edge = 127;
			print_int(big + neg + edge); /* mvi range edges */
			return 0;
		}`,
		`int f(int x) { return x == 100; }
		int main() {
			int s = 0, i;
			for (i = 90; i < 110; i++) s += f(i);
			print_int(s);
			print_int(1234567 / 321);
			return 0;
		}`,
	}
	for _, src := range srcs {
		base, _, _ := runMC(t, src, isa.D16())
		plus, _, _ := runMC(t, src, isa.D16Plus())
		if base != plus {
			t.Errorf("D16+ output %q differs from D16 %q", plus, base)
		}
	}
	// The variant must actually emit compare-equal immediates.
	asmText, _, err := GenAsm("t.mc", srcs[0], isa.D16Plus())
	if err != nil {
		t.Fatal(err)
	}
	if countLines(asmText, "cmp.eq r0, ") == 0 {
		t.Error("D16+ emitted no compare-equal immediates")
	}
	found := false
	for _, l := range strings.Split(asmText, "\n") {
		if strings.Contains(l, "cmp.eq r0, ") && strings.Contains(l, ", 17") {
			found = true
		}
	}
	if !found {
		t.Errorf("cmp.eq with immediate 17 not found:\n%s", asmText)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no main", "int f() { return 1; }"},
		{"undefined var", "int main() { return x; }"},
		{"undefined func", "int main() { return g(); }"},
		{"bad args", "int f(int a) { return a; } int main() { return f(); }"},
		{"type mismatch", "int main() { int *p; double d; p = d; return 0; }"},
		{"void value", "int main() { int x; x = print_int(1); return 0; }"},
		{"break outside", "int main() { break; return 0; }"},
		{"redefined", "int main() { int a = 1; int a = 2; return a; }"},
		{"not lvalue", "int main() { 3 = 4; return 0; }"},
		{"array assign", "int a[3]; int main() { a = 0; return 0; }"},
	}
	for _, tc := range cases {
		if _, err := Compile("t.mc", tc.src, isa.D16()); err == nil {
			t.Errorf("%s: expected a compile error", tc.name)
		}
	}
}
