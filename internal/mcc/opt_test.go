package mcc

import (
	"testing"

	"repro/internal/isa"
)

// IR-construction helpers for pass-level unit tests.

func irFunc() *IRFunc {
	return &IRFunc{Name: "t", Ret: TypeInt}
}

func constI(f *IRFunc, b *Block, v int64) VReg {
	d := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: IConst, Ty: TI32, Dst: d, Imm: v})
	return d
}

func binI(f *IRFunc, b *Block, op IOp, a, bb VReg) VReg {
	d := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: op, Ty: TI32, Dst: d, A: a, B: bb})
	return d
}

func retI(b *Block, v VReg) {
	b.Ins = append(b.Ins, Ins{Op: IRet, Ty: TI32, A: v})
}

// newOptimizer returns an optimizer set up for f, for running one pass.
func newOptimizer(f *IRFunc, spec *isa.Spec) *optimizer {
	o := new(optimizer)
	o.reset(f, spec)
	return o
}

func countOps(f *IRFunc, op IOp) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	a := constI(f, b, 6)
	c := constI(f, b, 7)
	d := binI(f, b, IMul, a, c)
	retI(b, d)
	Optimize(f, isa.D16())
	// 6*7 folds to a constant 42 and the operand constants die.
	if countOps(f, IMul) != 0 && countOps(f, IShl) != 0 {
		t.Fatalf("multiply not folded:\n%s", f)
	}
	found := false
	for i := range f.Blocks[0].Ins {
		in := &f.Blocks[0].Ins[i]
		if in.Op == IConst && in.Imm == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no folded 42:\n%s", f)
	}
}

// TestImmediateFormationIsTargetAware is the heart of the paper's
// immediate-field experiment: the same IR forms an immediate on DLXe but
// keeps a materialized (hoistable) constant on D16.
func TestImmediateFormationIsTargetAware(t *testing.T) {
	build := func() *IRFunc {
		f := irFunc()
		b := f.NewBlock()
		p := f.NewVReg(TI32)
		f.Params = append(f.Params, p)
		c := constI(f, b, 400) // fits DLXe's 16-bit field, not D16's 5-bit
		d := binI(f, b, IAdd, p, c)
		retI(b, d)
		return f
	}

	dlxe := build()
	Optimize(dlxe, isa.DLXe())
	if n := countOps(dlxe, IConst); n != 0 {
		t.Errorf("DLXe: constant not absorbed into an immediate:\n%s", dlxe)
	}

	d16 := build()
	Optimize(d16, isa.D16())
	if n := countOps(d16, IConst); n != 1 {
		t.Errorf("D16: constant should stay materialized (got %d IConst):\n%s", n, d16)
	}

	// A 5-bit-friendly constant forms an immediate on both.
	small := build()
	small.Blocks[0].Ins[0].Imm = 7
	Optimize(small, isa.D16())
	if n := countOps(small, IConst); n != 0 {
		t.Errorf("D16: small constant should fold into addi:\n%s", small)
	}
}

func TestStrengthReduction(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	c := constI(f, b, 8)
	d := binI(f, b, IMul, p, c)
	retI(b, d)
	Optimize(f, isa.D16())
	if countOps(f, IMul) != 0 {
		t.Fatalf("multiply by 8 not reduced:\n%s", f)
	}
	if countOps(f, IShl) != 1 {
		t.Fatalf("expected a shift:\n%s", f)
	}
}

func TestLocalCSE(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	q := f.NewVReg(TI32)
	f.Params = append(f.Params, p, q)
	x1 := binI(f, b, IAdd, p, q)
	x2 := binI(f, b, IAdd, p, q) // duplicate
	s := binI(f, b, IAdd, x1, x2)
	retI(b, s)
	Optimize(f, isa.D16())
	// One add of p+q remains; the second becomes a copy (then the sum
	// uses the same value twice).
	adds := 0
	for i := range f.Blocks[0].Ins {
		in := &f.Blocks[0].Ins[i]
		if in.Op == IAdd && in.A == p {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("CSE left %d copies of p+q:\n%s", adds, f)
	}
}

func TestCSEInvalidatedByRedefinition(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	q := f.NewVReg(TI32)
	f.Params = append(f.Params, p, q)
	x1 := binI(f, b, IAdd, p, q)
	// Redefine p, then recompute p+q: NOT a common subexpression.
	b.Ins = append(b.Ins, Ins{Op: IMov, Ty: TI32, Dst: p, A: x1})
	x2 := binI(f, b, IAdd, p, q)
	s := binI(f, b, IAdd, x1, x2)
	retI(b, s)
	before := countOps(f, IAdd)
	for _, blk := range f.Blocks {
		newOptimizer(f, nil).localCSE(blk)
	}
	if countOps(f, IAdd) != before {
		t.Fatalf("CSE merged across a redefinition:\n%s", f)
	}
}

func TestCSELoadsInvalidatedByStore(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	l1 := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: ILoad, Ty: TI32, Dst: l1, AK: AKReg, A: p, Size: 4})
	b.Ins = append(b.Ins, Ins{Op: IStore, Ty: TI32, A: l1, B: p, AK: AKReg, Size: 4})
	l2 := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: ILoad, Ty: TI32, Dst: l2, AK: AKReg, A: p, Size: 4})
	s := binI(f, b, IAdd, l1, l2)
	retI(b, s)
	for _, blk := range f.Blocks {
		newOptimizer(f, nil).localCSE(blk)
	}
	if countOps(f, ILoad) != 2 {
		t.Fatalf("load CSE ignored an intervening store:\n%s", f)
	}

	// Without the store, the second load folds away.
	f2 := irFunc()
	b2 := f2.NewBlock()
	p2 := f2.NewVReg(TI32)
	f2.Params = append(f2.Params, p2)
	m1 := f2.NewVReg(TI32)
	m2 := f2.NewVReg(TI32)
	b2.Ins = append(b2.Ins, Ins{Op: ILoad, Ty: TI32, Dst: m1, AK: AKReg, A: p2, Size: 4})
	b2.Ins = append(b2.Ins, Ins{Op: ILoad, Ty: TI32, Dst: m2, AK: AKReg, A: p2, Size: 4})
	s2 := binI(f2, b2, IAdd, m1, m2)
	retI(b2, s2)
	for _, blk := range f2.Blocks {
		newOptimizer(f2, nil).localCSE(blk)
	}
	if countOps(f2, ILoad) != 1 {
		t.Fatalf("duplicate load not merged:\n%s", f2)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	binI(f, b, IAdd, p, p) // dead
	live := binI(f, b, ISub, p, p)
	retI(b, live)
	newOptimizer(f, nil).deadCode()
	if countOps(f, IAdd) != 0 {
		t.Fatalf("dead add survived:\n%s", f)
	}
	if countOps(f, ISub) != 1 {
		t.Fatalf("live sub removed:\n%s", f)
	}
}

func TestBranchFoldingAndPruning(t *testing.T) {
	f := irFunc()
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	c := constI(f, b0, 1)
	b0.Ins = append(b0.Ins, Ins{Op: ICondBr, A: c, Imm: int64(b1.ID), Imm2: int64(b2.ID)})
	one := constI(f, b1, 10)
	retI(b1, one)
	two := constI(f, b2, 20)
	retI(b2, two)
	Optimize(f, isa.D16())
	// The condition is constant-true: b2 is unreachable and pruned.
	for _, blk := range f.Blocks {
		if blk.ID == b2.ID {
			t.Fatalf("unreachable block survived:\n%s", f)
		}
	}
	if countOps(f, ICondBr) != 0 {
		t.Fatalf("constant branch not folded:\n%s", f)
	}
}

func TestHoistMovesExpensiveConstantsOnly(t *testing.T) {
	build := func() (*IRFunc, *Block, *Block) {
		f := irFunc()
		pre := f.NewBlock()
		head := f.NewBlock()
		body := f.NewBlock()
		exit := f.NewBlock()
		p := f.NewVReg(TI32)
		f.Params = append(f.Params, p)
		pre.Ins = append(pre.Ins, Ins{Op: IBr, Imm: int64(head.ID)})
		cond := f.NewVReg(TI32)
		head.Ins = append(head.Ins, Ins{Op: ICmp, Ty: TI32, Cond: isa.LT, Dst: cond, A: p, B: p})
		head.Ins = append(head.Ins, Ins{Op: ICondBr, A: cond, Imm: int64(body.ID), Imm2: int64(exit.ID)})
		big := f.NewVReg(TI32)
		body.Ins = append(body.Ins, Ins{Op: IConst, Ty: TI32, Dst: big, Imm: 100000})
		small := f.NewVReg(TI32)
		body.Ins = append(body.Ins, Ins{Op: IConst, Ty: TI32, Dst: small, Imm: 3})
		sum := f.NewVReg(TI32)
		body.Ins = append(body.Ins, Ins{Op: IAdd, Ty: TI32, Dst: sum, A: big, B: small})
		body.Ins = append(body.Ins, Ins{Op: IStore, Ty: TI32, A: sum, AK: AKSlot, Slot: 0, Size: 4})
		body.Ins = append(body.Ins, Ins{Op: IBr, Imm: int64(head.ID)})
		retI(exit, p)
		f.Slots = []SlotInfo{{Name: "x", Size: 4, Align: 4}}
		f.Loops = []Loop{{Pre: pre.ID, Head: head.ID,
			Blocks: []int{head.ID, body.ID}}}
		return f, pre, body
	}

	f, pre, body := build()
	Hoist(f, isa.D16(), map[string]int32{})
	// The 100000 constant (pool load on D16) moves to the preheader; the
	// small one stays put.
	preConsts, bodyConsts := 0, 0
	for i := range pre.Ins {
		if pre.Ins[i].Op == IConst {
			preConsts++
		}
	}
	for i := range body.Ins {
		if body.Ins[i].Op == IConst {
			bodyConsts++
		}
	}
	if preConsts != 1 || bodyConsts != 1 {
		t.Fatalf("hoist moved %d/%d constants (want 1 hoisted, 1 left):\n%s",
			preConsts, bodyConsts, f)
	}

	// On DLXe, 100000 needs mvhi+ori (2 instructions): also hoisted.
	f2, pre2, _ := build()
	Hoist(f2, isa.DLXe(), map[string]int32{})
	pc := 0
	for i := range pre2.Ins {
		if pre2.Ins[i].Op == IConst {
			pc++
		}
	}
	if pc != 1 {
		t.Fatalf("DLXe hoist moved %d constants, want 1", pc)
	}
}

func TestLowerCallsCreatesRuntimeCalls(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	q := f.NewVReg(TI32)
	f.Params = append(f.Params, p, q)
	d := binI(f, b, IDiv, p, q)
	r := binI(f, b, IRem, d, q)
	m := binI(f, b, IMul, r, q)
	retI(b, m)
	LowerCalls(f)
	if countOps(f, IDiv)+countOps(f, IRem)+countOps(f, IMul) != 0 {
		t.Fatalf("arith not lowered:\n%s", f)
	}
	if countOps(f, ICall) != 3 {
		t.Fatalf("expected 3 runtime calls:\n%s", f)
	}
	if !f.HasCall {
		t.Error("HasCall not set")
	}
}

func TestLowerCallTargetsOnlyOnD16(t *testing.T) {
	build := func() *IRFunc {
		f := irFunc()
		b := f.NewBlock()
		d := f.NewVReg(TI32)
		b.Ins = append(b.Ins, Ins{Op: ICall, Ty: TI32, Dst: d, A: NoV, Sym: "g"})
		retI(b, d)
		return f
	}
	d16 := build()
	LowerCallTargets(d16, isa.D16())
	if countOps(d16, IAddr) != 1 {
		t.Fatalf("D16 call target not materialized:\n%s", d16)
	}
	dlxe := build()
	LowerCallTargets(dlxe, isa.DLXe())
	if countOps(dlxe, IAddr) != 0 {
		t.Fatalf("DLXe should keep direct calls:\n%s", dlxe)
	}
}

// TestCopyPropagationStopsAtSourceRedefinition: after c = mov p, a use
// of c reads p only until p is redefined; later uses keep c.
func TestCopyPropagationStopsAtSourceRedefinition(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	q := f.NewVReg(TI32)
	f.Params = append(f.Params, p, q)
	c := f.NewVReg(TI32)
	b.Ins = append(b.Ins, Ins{Op: IMov, Ty: TI32, Dst: c, A: p})
	early := binI(f, b, IAdd, c, q)
	b.Ins = append(b.Ins, Ins{Op: IMov, Ty: TI32, Dst: p, A: q}) // p redefined
	late := binI(f, b, IAdd, c, q)
	retI(b, binI(f, b, IAdd, early, late))
	newOptimizer(f, isa.D16()).localOpt(b)
	for i := range b.Ins {
		in := &b.Ins[i]
		switch in.Dst {
		case early:
			if in.A != p {
				t.Errorf("use of c before p's redefinition reads v%d, want p (v%d):\n%s", in.A, p, f)
			}
		case late:
			if in.A != c {
				t.Errorf("use of c after p's redefinition reads v%d, want c (v%d):\n%s", in.A, c, f)
			}
		}
	}
}

// TestDeadCodeRemovesChains: a chain of dead definitions, each dead only
// once the next is gone, disappears in one deadCode call.
func TestDeadCodeRemovesChains(t *testing.T) {
	f := irFunc()
	b := f.NewBlock()
	p := f.NewVReg(TI32)
	f.Params = append(f.Params, p)
	x := p
	for i := 0; i < 4; i++ {
		x = binI(f, b, IAdd, x, x) // each feeds only the next
	}
	retI(b, p)
	if !newOptimizer(f, nil).deadCode() {
		t.Fatal("deadCode reported no change")
	}
	if n := countOps(f, IAdd); n != 0 {
		t.Fatalf("%d links of a dead chain survived:\n%s", n, f)
	}
}
