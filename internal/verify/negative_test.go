package verify_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/dlxe"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/verify"
)

// expect is one required violation: the exact PC it must anchor to, the
// check family, and a substring of the message.
type expect struct {
	pc    uint32
	check string
	msg   string
}

// corpusCases maps each testdata source to the violations it must
// produce. PCs are isa.TextBase plus the instruction offset, accounting
// for the D16 jl-to-label expansion (ldc + jl = 2 slots).
var corpusCases = []struct {
	file string
	spec func() *isa.Spec
	want []expect
}{
	{"d16_ctl_in_slot.s", isa.D16, []expect{
		{0x1002, verify.CheckCFG, "control transfer in a delay slot"},
	}},
	{"d16_no_slot_at_end.s", isa.D16, []expect{
		{0x1000, verify.CheckCFG, "no delay slot"},
	}},
	{"d16_unreachable.s", isa.D16, []expect{
		{0x1004, verify.CheckCFG, "unreachable: 2 instruction(s)"},
	}},
	{"d16_sp_unbalanced.s", isa.D16, []expect{
		{0x100c, verify.CheckStack, "off by -8 bytes at return"},
	}},
	{"d16_callee_clobber.s", isa.D16, []expect{
		{0x100c, verify.CheckStack, "not restored at return: r7"},
	}},
	{"d16_gp_overwrite.s", isa.D16, []expect{
		{0x1000, verify.CheckStack, "global pointer r13 overwritten"},
	}},
	{"d16_undef_read.s", isa.D16, []expect{
		{0x1000, verify.CheckDefUse, "r14 read but not written"},
	}},
	{"d16_clobber_after_call.s", isa.D16, []expect{
		{0x1006, verify.CheckDefUse, "r4 read but not written"},
	}},
	{"dlxe_trap_bad.s", isa.DLXe, []expect{
		{0x1000, verify.CheckCFG, "trap code 9 is not serviced"},
	}},
	{"dlxe_rdsr_nofcmp.s", isa.DLXe, []expect{
		{0x1000, verify.CheckDefUse, "rdsr reads FP status"},
	}},
	{"dlxe_unaligned_target.s", isa.DLXe, []expect{
		{0x1004, verify.CheckCFG, "not instruction-aligned"},
	}},
	{"dlxe_jump_outside.s", isa.DLXe, []expect{
		{0x1004, verify.CheckCFG, "outside the text segment"},
	}},
	{"dlxe_call_mid_function.s", isa.DLXe, []expect{
		{0x1000, verify.CheckCFG, "is not a function entry"},
	}},
	{"dlxe_sp_join.s", isa.DLXe, []expect{
		{0x100c, verify.CheckStack, "stack depths differ across joining paths"},
	}},
}

func assembleFile(t *testing.T, file string, spec *isa.Spec) *prog.Image {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(file, string(src), spec)
	if err != nil {
		t.Fatalf("assemble %s: %v", file, err)
	}
	return img
}

func requireViolation(t *testing.T, rep *verify.Report, w expect) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.PC == w.pc && v.Check == w.check && containsStr(v.Msg, w.msg) {
			return
		}
	}
	t.Errorf("missing violation pc=%#x check=%s msg~%q; got:\n%s",
		w.pc, w.check, w.msg, violationDump(rep))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func violationDump(rep *verify.Report) string {
	out := ""
	for _, v := range rep.Violations {
		out += "  " + v.String() + "\n"
	}
	if out == "" {
		out = "  (clean)"
	}
	return out
}

// TestNegativeCorpus: every hand-written bad program is rejected with a
// violation anchored at the exact offending PC, and its report carries
// no CFG.
func TestNegativeCorpus(t *testing.T) {
	for _, tc := range corpusCases {
		t.Run(tc.file, func(t *testing.T) {
			spec := tc.spec()
			img := assembleFile(t, tc.file, spec)
			rep := verify.Image(img, spec)
			if rep.OK() {
				t.Fatalf("%s verified clean, want rejection", tc.file)
			}
			if rep.CFG() != nil {
				t.Errorf("%s: rejected report carries a CFG", tc.file)
			}
			for _, w := range tc.want {
				requireViolation(t, rep, w)
			}
		})
	}
}

// badDLXeWord returns an instruction word the DLXe decoder rejects.
func badDLXeWord(t *testing.T) uint32 {
	t.Helper()
	for op := uint32(63); op > 0; op-- {
		w := op << 26
		if _, err := dlxe.Decode(w, isa.TextBase); err != nil {
			return w
		}
	}
	t.Fatal("no undecodable DLXe word found")
	return 0
}

// TestUndecodableEntry: a garbage word at a reachable PC is an encoding
// violation at that PC.
func TestUndecodableEntry(t *testing.T) {
	spec := isa.DLXe()
	img, err := asm.Assemble("t.s", "\t.text\n_start:\n\ttrap 0\n\tnop\n", spec)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img.Text[0:], badDLXeWord(t))
	rep := verify.Image(img, spec)
	requireViolation(t, rep, expect{0x1000, verify.CheckEncoding, "undecodable instruction word"})
}

// TestUndecodableDelaySlot: garbage in a delay slot is flagged at the
// slot's PC with the slot-specific message.
func TestUndecodableDelaySlot(t *testing.T) {
	spec := isa.DLXe()
	src := "\t.text\n_start:\n\tb .out\n\tnop\n.out:\n\ttrap 0\n\tnop\n"
	img, err := asm.Assemble("t.s", src, spec)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img.Text[4:], badDLXeWord(t))
	rep := verify.Image(img, spec)
	requireViolation(t, rep, expect{0x1004, verify.CheckEncoding, "undecodable instruction word in delay slot"})
}

// TestSpecMismatch: code legal for full DLXe violates the restricted
// variants' field and arity limits — the checks the compiler must
// respect even though the raw encoding is wider.
func TestSpecMismatch(t *testing.T) {
	src := "\t.text\n_start:\n\tadd r4, r5, r6\n\tadd r7, r20, r21\n\ttrap 0\n\tnop\n"
	img, err := asm.Assemble("t.s", src, isa.DLXe())
	if err != nil {
		t.Fatal(err)
	}

	restricted := isa.RestrictRegs(isa.DLXe(), 16)
	rep := verify.Image(img, restricted)
	requireViolation(t, rep, expect{0x1004, verify.CheckEncoding, "register r20 exceeds the 16-GPR register file"})
	requireViolation(t, rep, expect{0x1004, verify.CheckEncoding, "register r21 exceeds the 16-GPR register file"})

	twoAddr := isa.TwoAddress(restricted)
	rep = verify.Image(img, twoAddr)
	requireViolation(t, rep, expect{0x1000, verify.CheckEncoding, "two-address target requires rd == rs1"})
}

// TestMVIRangeMismatch: a 9-bit D16 mvi immediate is out of range for
// the 8-bit D16+ variant.
func TestMVIRangeMismatch(t *testing.T) {
	src := "\t.text\n_start:\n\tmvi r4, 200\n\ttrap 0\n\tnop\n"
	img, err := asm.Assemble("t.s", src, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Image(img, isa.D16Plus())
	requireViolation(t, rep, expect{0x1000, verify.CheckEncoding, "mvi immediate 200 outside"})
}
