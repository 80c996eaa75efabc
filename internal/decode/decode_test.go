package decode_test

import (
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/d16"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/mcc"
)

func compile(t *testing.T, name string, spec *isa.Spec) *mcc.Compiled {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("benchmark %q missing", name)
	}
	c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTableSharing: images with identical text and decode rules share
// one predecoded table, and re-compiling does not grow the cache.
func TestTableSharing(t *testing.T) {
	a := compile(t, "queens", isa.D16())
	b := compile(t, "queens", isa.D16())
	if &a.Image.Text[0] == &b.Image.Text[0] {
		t.Fatal("want two distinct compiles for the sharing test")
	}
	ta, tb := decode.For(a.Image), decode.For(b.Image)
	if ta != tb {
		t.Error("identical images got distinct decode tables")
	}
	if tc := decode.For(compile(t, "queens", isa.DLXe()).Image); tc == ta {
		t.Error("distinct encodings share a decode table")
	}
}

// TestMetaMatchesInstr: for every decodable op of a representative image
// pair, the predecoded metadata agrees with the isa-level derivation
// rules the interpreter and timing engine historically used.
func TestMetaMatchesInstr(t *testing.T) {
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		tab := decode.For(compile(t, "whetstone", spec).Image)
		for i, op := range tab.Ops {
			if op.Flags&decode.FBad != 0 {
				if tab.Errs[i] == nil {
					t.Fatalf("op %d: decode.FBad without recorded error", i)
				}
				continue
			}
			in := op.In
			var buf [4]isa.Reg
			uses := in.Uses(buf[:0])
			wantU1, wantU2 := decode.None, decode.None
			if len(uses) > 0 {
				wantU1 = uint8(uses[0])
			}
			if len(uses) > 1 {
				wantU2 = uint8(uses[1])
			}
			if op.U1 != wantU1 || op.U2 != wantU2 {
				t.Fatalf("op %d (%s): uses (%d,%d), want (%d,%d)", i, in, op.U1, op.U2, wantU1, wantU2)
			}
			if op.Def != uint8(in.Def()) {
				t.Fatalf("op %d (%s): def %d, want %d", i, in, op.Def, uint8(in.Def()))
			}
			if int64(op.Lat) != isa.ResultLatency(in.Op) {
				t.Fatalf("op %d (%s): lat %d, want %d", i, in, op.Lat, isa.ResultLatency(in.Op))
			}
			if op.Imm != isa.ImmClassOf(in) {
				t.Fatalf("op %d (%s): immediate class %d, want %d", i, in, op.Imm, isa.ImmClassOf(in))
			}
		}
	}
}

// badD16Half returns an instruction halfword the D16 decoder rejects.
// Pool data happens to share the instruction namespace, so plenty of
// pool words decode fine — the test has to plant one that provably
// does not.
func badD16Half(t *testing.T) uint16 {
	t.Helper()
	for w := uint16(0xFFFF); w > 0; w-- {
		if _, err := d16.DecodeV(w, isa.TextBase, d16.Variant{}); err != nil {
			return w
		}
	}
	t.Fatal("no undecodable D16 halfword found")
	return 0
}

// TestPoolWordsAreSentinels: a pool literal whose halfwords do not
// decode becomes sentinel ops (decode.FBad + recorded error) at non-code PCs,
// and sentinels never appear anywhere else.
func TestPoolWordsAreSentinels(t *testing.T) {
	bad := badD16Half(t)
	lit := uint32(bad) | uint32(bad)<<16
	src := "\t.text\n\t.global _start\n_start:\n\tldc r0, =" +
		strconv.FormatUint(uint64(lit), 10) + "\n\ttrap 0\n\tnop\n\t.pool\n"
	img, err := asm.Assemble("pool.s", src, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	tab := decode.For(img)
	sentinels := 0
	for i, op := range tab.Ops {
		pc := tab.Base + uint32(i)*tab.IB
		if op.Flags&decode.FBad == 0 {
			continue
		}
		sentinels++
		if !img.InNonCode(pc) {
			t.Errorf("pc %#x: sentinel outside the image's non-code ranges", pc)
		}
		if tab.Errs[i] == nil {
			t.Errorf("pc %#x: sentinel without a recorded decode error", pc)
		}
		if op.In != (isa.Instr{}) {
			t.Errorf("pc %#x: sentinel carries a decoded instruction %v", pc, op.In)
		}
	}
	if sentinels < 2 {
		t.Errorf("planted 2 undecodable pool halfwords, table has %d sentinels", sentinels)
	}
}
