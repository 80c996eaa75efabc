package asm

import (
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/d16"
	"repro/internal/dlxe"
	"repro/internal/isa"
	"repro/internal/prog"
)

func mustAssemble(t *testing.T, src string, spec *isa.Spec) *prog.Image {
	t.Helper()
	img, err := Assemble("test.s", src, spec)
	if err != nil {
		t.Fatalf("Assemble(%s): %v", spec, err)
	}
	return img
}

// decodeText decodes the whole text segment for inspection.
func decodeText(t *testing.T, img *prog.Image) []isa.Instr {
	t.Helper()
	var out []isa.Instr
	if img.Enc == isa.EncD16 {
		for off := 0; off+2 <= len(img.Text); off += 2 {
			w := binary.LittleEndian.Uint16(img.Text[off:])
			in, err := d16.Decode(w, isa.TextBase+uint32(off))
			if err != nil {
				in = isa.Instr{Op: isa.BAD}
			}
			out = append(out, in)
		}
		return out
	}
	for off := 0; off+4 <= len(img.Text); off += 4 {
		w := binary.LittleEndian.Uint32(img.Text[off:])
		in, err := dlxe.Decode(w, isa.TextBase+uint32(off))
		if err != nil {
			in = isa.Instr{Op: isa.BAD}
		}
		out = append(out, in)
	}
	return out
}

const tinyProgram = `
	.text
	.global _start
_start:
	mvi   r3, 5
	addi  r3, r3, 2
	mv    r4, r3
	add   r4, r4, r3
	cmp.lt r0, r4, r3
	bz    r0, done
	nop
	sub   r4, r4, r3
done:
	trap  0
	nop
`

func TestAssembleTinyBothTargets(t *testing.T) {
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		img := mustAssemble(t, tinyProgram, spec)
		if img.Entry != isa.TextBase {
			t.Errorf("%s: entry %#x, want %#x", spec, img.Entry, isa.TextBase)
		}
		if img.TextInstrs != 10 {
			t.Errorf("%s: %d instructions, want 10", spec, img.TextInstrs)
		}
		wantSize := 10 * int(spec.InstrBytes())
		if img.Size() != wantSize {
			t.Errorf("%s: size %d, want %d", spec, img.Size(), wantSize)
		}
		ins := decodeText(t, img)
		if ins[0].Op != isa.MVI || ins[0].Imm != 5 {
			t.Errorf("%s: first instruction %v", spec, ins[0])
		}
		if ins[5].Op != isa.BZ {
			t.Errorf("%s: instruction 5 is %v, want bz", spec, ins[5])
		}
		// bz at index 5 targets "done" at index 8: displacement 3 instrs.
		if want := int32(3 * spec.InstrBytes()); ins[5].Imm != want {
			t.Errorf("%s: bz displacement %d, want %d", spec, ins[5].Imm, want)
		}
	}
}

// TestSymbolsDoNotPinSource checks that no symbol name in the image
// shares bytes with the assembly source: a key that is a substring of
// the source keeps the whole source text reachable for the image's
// lifetime.
func TestSymbolsDoNotPinSource(t *testing.T) {
	src := tinyProgram + "\t.data\ncounter: .word 7\n"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		img := mustAssemble(t, src, spec)
		for _, name := range []string{"_start", "done", "counter"} {
			if _, ok := img.Symbols[name]; !ok {
				t.Fatalf("%s: symbol %q missing", spec, name)
			}
		}
		for k := range img.Symbols {
			if k == "" {
				continue
			}
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= lo && p < hi {
				t.Errorf("%s: symbol key %q points into the assembly source", spec, k)
			}
		}
	}
}

func TestD16TwoAddressViolation(t *testing.T) {
	src := ".text\n_start: add r4, r5, r6\n"
	if _, err := Assemble("t.s", src, isa.D16()); err == nil {
		t.Fatal("expected two-address violation error on D16")
	}
	if _, err := Assemble("t.s", src, isa.DLXe()); err != nil {
		t.Fatalf("DLXe should accept three-address add: %v", err)
	}
}

func TestRegisterFileRestriction(t *testing.T) {
	src := ".text\n_start: add r20, r20, r4\n"
	if _, err := Assemble("t.s", src, isa.RestrictRegs(isa.DLXe(), 16)); err == nil {
		t.Fatal("expected register-file violation on DLXe/16")
	}
	if _, err := Assemble("t.s", src, isa.DLXe()); err != nil {
		t.Fatalf("DLXe/32 should accept r20: %v", err)
	}
}

func TestDataDirectivesAndSymbols(t *testing.T) {
	src := `
	.data
counter: .word 42
table:   .word 1, 2, 3, table
msg:     .asciiz "hi\n"
half:    .half 7, 8
bytes:   .byte 1, 2, 3
buf:     .space 16
	.text
_start:
	ld r4, gprel(counter)(gp)
	trap 0
	nop
`
	img := mustAssemble(t, src, isa.DLXe())
	if got := img.Symbols["counter"]; got != isa.DataBase {
		t.Errorf("counter at %#x, want %#x", got, isa.DataBase)
	}
	if binary.LittleEndian.Uint32(img.Data[0:]) != 42 {
		t.Error("counter value wrong")
	}
	tbl := img.Symbols["table"] - isa.DataBase
	if binary.LittleEndian.Uint32(img.Data[tbl+12:]) != img.Symbols["table"] {
		t.Error("symbolic .word value wrong")
	}
	msg := img.Symbols["msg"] - isa.DataBase
	if string(img.Data[msg:msg+3]) != "hi\n" {
		t.Errorf("asciiz content %q", img.Data[msg:msg+3])
	}
	if img.Data[msg+3] != 0 {
		t.Error("asciiz not NUL terminated")
	}
	ins := decodeText(t, img)
	if ins[0].Op != isa.LD || ins[0].Imm != 0 || ins[0].Rs1 != isa.RegGP {
		t.Errorf("gprel load decoded as %v", ins[0])
	}
}

func TestD16LiteralPoolAndCall(t *testing.T) {
	src := `
	.text
	.global _start
_start:
	call f
	nop
	call f
	nop
	trap 0
	nop
	.pool
f:
	ret
	nop
`
	img := mustAssemble(t, src, isa.D16())
	ins := decodeText(t, img)
	if ins[0].Op != isa.LDC {
		t.Fatalf("call did not expand to ldc: %v", ins[0])
	}
	if ins[1].Op != isa.JL || ins[1].Rs1 != isa.RegCC {
		t.Fatalf("call did not expand to jl r0: %v", ins[1])
	}
	// Two calls to the same function share one pool literal.
	if img.PoolBytes != 4 {
		t.Errorf("pool bytes %d, want 4 (deduplicated literal)", img.PoolBytes)
	}
	// The literal must hold f's address.
	lit0 := ins[0]
	litAddr := uint32(int32(isa.TextBase) + lit0.Imm)
	got := binary.LittleEndian.Uint32(img.Text[litAddr-isa.TextBase:])
	if got != img.Symbols["f"] {
		t.Errorf("pool literal %#x, want f=%#x", got, img.Symbols["f"])
	}
}

func TestDLXeCallIsJType(t *testing.T) {
	src := ".text\n_start: call f\n nop\n trap 0\n nop\nf: ret\n nop\n"
	img := mustAssemble(t, src, isa.DLXe())
	ins := decodeText(t, img)
	if ins[0].Op != isa.JL || !ins[0].HasImm {
		t.Fatalf("DLXe call should be J-type jl, got %v", ins[0])
	}
	if tgt := uint32(int32(isa.TextBase) + ins[0].Imm); tgt != img.Symbols["f"] {
		t.Errorf("jl target %#x, want %#x", tgt, img.Symbols["f"])
	}
	if img.PoolBytes != 0 {
		t.Errorf("DLXe should not use literal pools, got %d bytes", img.PoolBytes)
	}
}

func TestLAMaterialization(t *testing.T) {
	src := `
	.data
big: .space 4
	.text
_start:
	la r4, big
	la r5, 7
	la r6, 100000
	trap 0
	nop
	.pool
`
	d := mustAssemble(t, src, isa.D16())
	dIns := decodeText(t, d)
	if dIns[0].Op != isa.LDC || dIns[1].Op != isa.MV {
		t.Errorf("D16 la big -> %v; %v, want ldc; mv", dIns[0], dIns[1])
	}
	if dIns[2].Op != isa.MVI || dIns[2].Imm != 7 {
		t.Errorf("D16 la 7 -> %v, want mvi", dIns[2])
	}

	x := mustAssemble(t, src, isa.DLXe())
	xIns := decodeText(t, x)
	if xIns[0].Op != isa.MVHI || xIns[1].Op != isa.ORI {
		t.Errorf("DLXe la big -> %v; %v, want mvhi; ori", xIns[0], xIns[1])
	}
	if hi := uint32(xIns[0].Imm)<<16 | uint32(xIns[1].Imm); hi != isa.DataBase {
		t.Errorf("DLXe la big materializes %#x, want %#x", hi, isa.DataBase)
	}
	if xIns[2].Op != isa.MVI || xIns[2].Imm != 7 {
		t.Errorf("DLXe la 7 -> %v", xIns[2])
	}
	// 100000 = 0x186A0 needs mvhi+ori on DLXe.
	if xIns[3].Op != isa.MVHI || xIns[4].Op != isa.ORI {
		t.Errorf("DLXe la 100000 -> %v; %v", xIns[3], xIns[4])
	}
}

func TestBranchRelaxationD16(t *testing.T) {
	// Force the conditional branch out of the ±1024-instruction range with
	// a text-segment gap.
	// The pool sits just past the function (as compiled code lays it out);
	// the branch target is a long way off.
	var b strings.Builder
	b.WriteString(".text\n_start:\n cmp.eq r0, r4, r5\n bz r0, far\n nop\n")
	b.WriteString(" trap 0\n nop\n .pool\n .space 6000\n")
	b.WriteString("far: trap 0\n nop\n")
	img := mustAssemble(t, b.String(), isa.D16())
	ins := decodeText(t, img)
	// Expansion: cmp; bnz .F; ldc; j r0; nop(slot); [.F] nops...
	if ins[1].Op != isa.BNZ {
		t.Fatalf("far bz not inverted: %v", ins[1])
	}
	if ins[2].Op != isa.LDC || ins[3].Op != isa.J || ins[3].Rs1 != isa.RegCC {
		t.Fatalf("far sequence wrong: %v; %v", ins[2], ins[3])
	}
	// The inverted branch skips to the original delay-slot instruction.
	if want := int32(3 * d16.Bytes); ins[1].Imm != want {
		t.Errorf("inverted branch displacement %d, want %d", ins[1].Imm, want)
	}
	// The literal holds the far target (the ldc is the third instruction,
	// at TextBase+4).
	litAddr := uint32(int32(isa.TextBase+4) + ins[2].Imm)
	got := binary.LittleEndian.Uint32(img.Text[litAddr-isa.TextBase:])
	if got != img.Symbols["far"] {
		t.Errorf("far literal %#x, want %#x", got, img.Symbols["far"])
	}
}

func TestBranchRelaxationDLXe(t *testing.T) {
	var b strings.Builder
	b.WriteString(".text\n_start:\n bz r4, far\n nop\n")
	for i := 0; i < 9000; i++ {
		b.WriteString(" nop\n")
	}
	b.WriteString("far: trap 0\n nop\n")
	img := mustAssemble(t, b.String(), isa.DLXe())
	ins := decodeText(t, img)
	if ins[0].Op != isa.BNZ || ins[1].Op != isa.NOP || ins[2].Op != isa.J || !ins[2].HasImm {
		t.Fatalf("far sequence wrong: %v; %v; %v", ins[0], ins[1], ins[2])
	}
	if tgt := uint32(int32(isa.TextBase+8) + ins[2].Imm); tgt != img.Symbols["far"] {
		t.Errorf("j target %#x, want %#x", tgt, img.Symbols["far"])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		spec *isa.Spec
	}{
		{"unknown mnemonic", ".text\n frob r1\n", isa.D16()},
		{"undefined symbol", ".text\n br nowhere\n nop\n", isa.D16()},
		{"duplicate label", ".text\na: nop\na: nop\n", isa.D16()},
		{"bad register", ".text\n add r40, r1, r1\n", isa.DLXe()},
		{"data instr", ".data\n nop\n", isa.D16()},
		{"wide d16 imm", ".text\n addi r4, r4, 99\n", isa.D16()},
		{"mvhi on d16", ".text\n mvhi r4, 1\n", isa.D16()},
		{"ldc on dlxe", ".text\n ldc r0, =5\n", isa.DLXe()},
		{"unknown directive", ".frobnicate 3\n", isa.D16()},
		{"bad string", ".data\n .asciiz \"oops\n", isa.D16()},
	}
	for _, tc := range cases {
		if _, err := Assemble("t.s", tc.src, tc.spec); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestLoadImage(t *testing.T) {
	img := mustAssemble(t, tinyProgram, isa.D16())
	mem := make([]byte, isa.MemSize)
	if err := img.Load(mem); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(mem[isa.TextBase:]) !=
		binary.LittleEndian.Uint16(img.Text[:2]) {
		t.Error("text not loaded at TextBase")
	}
}
