package mcc

import (
	"testing"

	"repro/internal/isa"
)

// callAcross builds: p = param; call g(); return p — p must survive the
// call.
func callAcross() *IRFunc {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	d := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: ICall, Ty: TI32, Dst: d, A: NoV, Sym: "g"})
	s := binI(f, b, IAdd, p, d)
	retI(b, s)
	f.HasCall = true
	return f
}

func TestCallCrossingGetsCalleeSaved(t *testing.T) {
	for _, spec := range isa.PaperConfigs() {
		f := callAcross()
		a := Allocate(f, spec)
		p := f.Params[0]
		r := a.Reg[p]
		if r == isa.NoReg {
			if a.SpillSlot[p] < 0 {
				t.Fatalf("%s: param neither allocated nor spilled", spec)
			}
			continue // spilled is safe
		}
		if !isa.CalleeSaved(r) {
			t.Errorf("%s: call-crossing value in caller-saved %s", spec, r)
		}
	}
}

func TestCallAsFirstInstructionStillCrosses(t *testing.T) {
	// Regression: a call at instruction index 0 must still count as
	// crossed by parameter live ranges (assem's labdef bug).
	f := callAcross()
	a := Allocate(f, isa.DLXe())
	p := f.Params[0]
	if r := a.Reg[p]; r != isa.NoReg && !isa.CalleeSaved(r) {
		t.Fatalf("param allocated to caller-saved %s across a leading call", r)
	}
}

func TestBuiltinCrossingAvoidsReturnRegs(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	b.Ins = append(b.Ins, Ins{Op: ICall, Ty: TI32, Dst: NoV, A: NoV,
		Sym: "print_int", Args: []VReg{p}, Builtin: true})
	s := binI(f, b, IAdd, p, p) // p used after the trap
	retI(b, s)
	a := Allocate(f, isa.D16())
	if r := a.Reg[p]; r == isa.RetReg {
		t.Fatalf("value crossing a builtin trap allocated to r3 (clobbered by the argument move)")
	}
}

func TestSpillPrefersColdValues(t *testing.T) {
	// More simultaneously-live values than D16 registers, where one value
	// is used once outside the loop (cold) and the rest are used in the
	// loop (hot): the cold one must spill first.
	f := irFunc()
	pre := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	var hot []VReg
	for i := 0; i < 12; i++ {
		v := constI(f, pre, int64(i))
		hot = append(hot, v)
	}
	cold := constI(f, pre, 999)
	pre.Ins = append(pre.Ins, Ins{Op: IBr, Imm: int64(head.ID)})

	cond := f.NewVReg(TI32)
	head.Ins = append(head.Ins, Ins{Op: ICmp, Ty: TI32, Cond: isa.LT, Dst: cond,
		A: hot[0], B: hot[1]})
	head.Ins = append(head.Ins, Ins{Op: ICondBr, A: cond,
		Imm: int64(body.ID), Imm2: int64(exit.ID)})

	acc := f.NewVReg(TI32)
	body.Ins = append(body.Ins, Ins{Op: IConst, Ty: TI32, Dst: acc, Imm: 0})
	for _, h := range hot {
		nv := f.NewVReg(TI32)
		body.Ins = append(body.Ins, Ins{Op: IAdd, Ty: TI32, Dst: nv, A: acc, B: h})
		acc = nv
	}
	body.Ins = append(body.Ins, Ins{Op: IBr, Imm: int64(head.ID)})

	s := binI(f, exit, IAdd, cold, hot[0])
	retI(exit, s)

	f.Loops = []Loop{{Pre: pre.ID, Head: head.ID,
		Blocks: []int{head.ID, body.ID}}}

	a := Allocate(f, isa.D16())
	if a.Spills == 0 {
		t.Skip("no pressure on this configuration")
	}
	for _, h := range hot {
		if a.Reg[h] == isa.NoReg && a.SpillSlot[cold] < 0 {
			t.Fatalf("hot loop value v%d spilled while cold value kept a register", h)
		}
	}
}

func TestFPandIntFilesAreIndependent(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	var ints, fps []VReg
	for i := 0; i < 4; i++ {
		ints = append(ints, constI(f, b, int64(i)))
		d := f.NewVReg(TF64)
		b.Ins = append(b.Ins, Ins{Op: IConst, Ty: TF64, Dst: d, FImm: float64(i)})
		fps = append(fps, d)
	}
	s := ints[0]
	for _, v := range ints[1:] {
		s = binI(f, b, IAdd, s, v)
	}
	fs := fps[0]
	for _, v := range fps[1:] {
		d := f.NewVReg(TF64)
		b.Ins = append(b.Ins, Ins{Op: IFAdd, Ty: TF64, Dst: d, A: fs, B: v})
		fs = d
	}
	retI(b, s)
	a := Allocate(f, isa.D16())
	for _, v := range ints {
		if r := a.Reg[v]; r != isa.NoReg && !r.IsGPR() {
			t.Errorf("integer vreg in %s", r)
		}
	}
	for _, v := range fps {
		if r := a.Reg[v]; r != isa.NoReg && !r.IsFPR() {
			t.Errorf("FP vreg in %s", r)
		}
	}
}

func TestNoAliasedActiveRegisters(t *testing.T) {
	// Sanity over a real program: at no point may two simultaneously-live
	// vregs share a register. Approximate check: compile the whole suite
	// of unit-test programs and rely on execution correctness; here just
	// check the allocator never hands out reserved registers.
	f := callAcross()
	for _, spec := range isa.PaperConfigs() {
		a := Allocate(f, spec)
		for v, r := range a.Reg {
			if r == isa.NoReg {
				continue
			}
			switch r {
			case isa.RegLink, isa.RegSP, isa.RegGP,
				isa.ScratchGPRs()[0], isa.ScratchGPRs()[1],
				isa.ScratchFPRs()[0], isa.ScratchFPRs()[1]:
				t.Errorf("%s: v%d allocated to reserved %s", spec, v, r)
			}
			if spec.R0Zero && r == isa.RegCC {
				t.Errorf("%s: v%d allocated to r0", spec, v)
			}
		}
	}
}

// TestIntervalSpansLoop: a value defined before a loop and read in its
// header is live around the back edge, so its interval covers the whole
// loop body, not just the span up to its last read.
func TestIntervalSpansLoop(t *testing.T) {
	f := irFunc()
	pre, head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	n := constI(f, pre, 10)
	pre.Ins = append(pre.Ins, Ins{Op: IBr, Imm: int64(head.ID)})
	i := f.NewVReg(TI32)
	cond := binI(f, head, ICmp, i, n) // n's last read
	head.Ins = append(head.Ins, Ins{Op: ICondBr, A: cond, Imm: int64(body.ID), Imm2: int64(exit.ID)})
	for k := 0; k < 3; k++ {
		binI(f, body, IAdd, i, i)
	}
	body.Ins = append(body.Ins, Ins{Op: IBr, Imm: int64(head.ID)})
	retI(exit, i)

	ivs, _, _ := buildIntervals(f)
	// Instruction indices start at 1: pre is 1-2, head 3-4, body 5-8,
	// and a value live out of the body reaches its end boundary, 9.
	bodyEnd := 1 + len(pre.Ins) + len(head.Ins) + len(body.Ins)
	for _, iv := range ivs {
		if iv.v == n {
			if iv.end < bodyEnd {
				t.Fatalf("v%d live around the back edge ends at %d, before the body's end %d", n, iv.end, bodyEnd)
			}
			return
		}
	}
	t.Fatalf("v%d has no interval", n)
}
