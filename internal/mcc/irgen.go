package mcc

import (
	"fmt"

	"repro/internal/isa"
)

// irgen lowers one checked function to IR.
type irgen struct {
	f       *IRFunc
	prog    *Program
	cur     *Block
	breakTo []int
	contTo  []int
}

// GenIR lowers all functions of a program to IR.
func GenIR(prog *Program) ([]*IRFunc, error) {
	var out []*IRFunc
	for _, fd := range prog.Funcs {
		f, err := genFunc(prog, fd)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func genFunc(prog *Program, fd *FuncDecl) (*IRFunc, error) {
	g := &irgen{
		f:    &IRFunc{Name: fd.Sym.Name, Ret: fd.Sym.Ret},
		prog: prog,
	}
	entry := g.f.NewBlock()
	g.cur = entry

	// Parameters arrive in fresh vregs; address-taken ones are demoted to
	// stack slots with a store at entry.
	intArgs, fpArgs := 0, 0
	for _, p := range fd.Sym.Params {
		t := tyOf(p.Ty)
		v := g.f.NewVReg(t)
		g.f.Params = append(g.f.Params, v)
		if t.IsFloat() {
			fpArgs++
			if fpArgs > isa.NumArgRegs {
				g.f.NStackArgs++
			}
		} else {
			intArgs++
			if intArgs > isa.NumArgRegs {
				g.f.NStackArgs++
			}
		}
		if p.Slot == -2 {
			p.Slot = g.newSlot(p.Name, p.Ty)
			g.emit(Ins{Op: IStore, Ty: t, A: v, AK: AKSlot, Slot: p.Slot,
				Size: uint8(p.Ty.Size())})
			p.VReg = -1
		} else {
			p.VReg = int(v)
		}
	}

	g.genStmt(fd.Body)

	// Implicit return at the end of the function.
	if g.cur.Term() == nil {
		if fd.Sym.Ret.K == KVoid {
			g.emit(Ins{Op: IRet, A: NoV})
		} else {
			z := g.constInt(0)
			g.emit(Ins{Op: IRet, Ty: tyOf(fd.Sym.Ret), A: z})
		}
	}
	// Terminate any dangling blocks (unreachable code after break etc.).
	for _, b := range g.f.Blocks {
		if b.Term() == nil {
			b.Ins = append(b.Ins, Ins{Op: IRet, A: NoV})
		}
	}
	return g.f, nil
}

func tyOf(t *Type) Ty {
	switch t.K {
	case KFloat:
		return TF32
	case KDouble:
		return TF64
	default:
		return TI32
	}
}

func (g *irgen) emit(in Ins) *Ins {
	if in.A == 0 && in.Op == IBad {
		panic("mcc: emitting bad instruction")
	}
	if g.cur.Term() != nil {
		// Unreachable code: emit into a fresh dead block so the IR stays
		// well formed; DCE never reaches it.
		g.cur = g.f.NewBlock()
	}
	g.cur.Ins = append(g.cur.Ins, in)
	return &g.cur.Ins[len(g.cur.Ins)-1]
}

func (g *irgen) newSlot(name string, t *Type) int {
	g.f.Slots = append(g.f.Slots, SlotInfo{Name: name, Size: t.Size(), Align: t.Align()})
	return len(g.f.Slots) - 1
}

func (g *irgen) constInt(v int64) VReg {
	d := g.f.NewVReg(TI32)
	g.emit(Ins{Op: IConst, Ty: TI32, Dst: d, Imm: v})
	return d
}

func (g *irgen) constFloat(v float64, t Ty) VReg {
	d := g.f.NewVReg(t)
	g.emit(Ins{Op: IConst, Ty: t, Dst: d, FImm: v})
	return d
}

func (g *irgen) brTo(id int) { g.emit(Ins{Op: IBr, Imm: int64(id)}) }

// --- statements -------------------------------------------------------------

func (g *irgen) genStmt(s Stmt) {
	switch st := s.(type) {
	case *BlockStmt:
		for _, inner := range st.List {
			g.genStmt(inner)
		}
	case *ExprStmt:
		g.genExpr(st.X)
	case *DeclStmt:
		g.genDecl(st)
	case *IfStmt:
		g.genIf(st)
	case *WhileStmt:
		g.genWhile(st)
	case *ForStmt:
		g.genFor(st)
	case *ReturnStmt:
		if st.X == nil {
			g.emit(Ins{Op: IRet, A: NoV})
		} else {
			v := g.genExpr(st.X)
			g.emit(Ins{Op: IRet, Ty: tyOf(st.X.Type()), A: v})
		}
	case *BreakStmt:
		g.brTo(g.breakTo[len(g.breakTo)-1])
	case *ContinueStmt:
		g.brTo(g.contTo[len(g.contTo)-1])
	default:
		panic(fmt.Sprintf("mcc: unknown statement %T", s))
	}
}

func (g *irgen) genDecl(st *DeclStmt) {
	sym := st.Sym
	switch {
	case sym.Ty.K == KArray || sym.Slot == -2:
		sym.Slot = g.newSlot(sym.Name, sym.Ty)
		if st.Init != nil {
			v := g.genExpr(st.Init)
			g.emit(Ins{Op: IStore, Ty: tyOf(sym.Ty), A: v, AK: AKSlot,
				Slot: sym.Slot, Size: uint8(sym.Ty.Size())})
		}
	default:
		v := g.f.NewVReg(tyOf(sym.Ty))
		sym.VReg = int(v)
		if st.Init != nil {
			iv := g.genExpr(st.Init)
			g.emit(Ins{Op: IMov, Ty: tyOf(sym.Ty), Dst: v, A: iv})
		}
	}
}

func (g *irgen) genIf(st *IfStmt) {
	thenB := g.f.NewBlock()
	exitB := g.f.NewBlock()
	elseB := exitB
	if st.Else != nil {
		elseB = g.f.NewBlock()
	}
	g.genCond(st.Cond, thenB.ID, elseB.ID)
	g.cur = thenB
	g.genStmt(st.Then)
	if g.cur.Term() == nil {
		g.brTo(exitB.ID)
	}
	if st.Else != nil {
		g.cur = elseB
		g.genStmt(st.Else)
		if g.cur.Term() == nil {
			g.brTo(exitB.ID)
		}
	}
	g.cur = exitB
}

func (g *irgen) genWhile(st *WhileStmt) {
	pre := g.cur.ID
	firstNew := len(g.f.Blocks)
	headB := g.f.NewBlock()
	bodyB := g.f.NewBlock()
	exitB := g.f.NewBlock()
	if st.Post {
		g.brTo(bodyB.ID) // do-while enters the body first
	} else {
		g.brTo(headB.ID)
	}
	g.cur = headB
	g.genCond(st.Cond, bodyB.ID, exitB.ID)
	g.cur = bodyB
	g.breakTo = append(g.breakTo, exitB.ID)
	g.contTo = append(g.contTo, headB.ID)
	g.genStmt(st.Body)
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.contTo = g.contTo[:len(g.contTo)-1]
	if g.cur.Term() == nil {
		g.brTo(headB.ID)
	}
	g.recordLoop(pre, headB.ID, firstNew, exitB.ID)
	g.cur = exitB
}

// recordLoop marks every block created since firstNew (except the exit
// block) as a member of the loop headed at head.
func (g *irgen) recordLoop(pre, head, firstNew, exit int) {
	var members []int
	for i := firstNew; i < len(g.f.Blocks); i++ {
		if id := g.f.Blocks[i].ID; id != exit {
			members = append(members, id)
		}
	}
	g.f.Loops = append(g.f.Loops, Loop{Pre: pre, Head: head, Blocks: members})
}

func (g *irgen) genFor(st *ForStmt) {
	if st.Init != nil {
		g.genStmt(st.Init)
	}
	pre := g.cur.ID
	firstNew := len(g.f.Blocks)
	headB := g.f.NewBlock()
	bodyB := g.f.NewBlock()
	stepB := g.f.NewBlock()
	exitB := g.f.NewBlock()
	g.brTo(headB.ID)
	g.cur = headB
	if st.Cond != nil {
		g.genCond(st.Cond, bodyB.ID, exitB.ID)
	} else {
		g.brTo(bodyB.ID)
	}
	g.cur = bodyB
	g.breakTo = append(g.breakTo, exitB.ID)
	g.contTo = append(g.contTo, stepB.ID)
	g.genStmt(st.Body)
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.contTo = g.contTo[:len(g.contTo)-1]
	if g.cur.Term() == nil {
		g.brTo(stepB.ID)
	}
	g.cur = stepB
	if st.Step != nil {
		g.genExpr(st.Step)
	}
	g.brTo(headB.ID)
	g.recordLoop(pre, headB.ID, firstNew, exitB.ID)
	g.cur = exitB
}

// genCond emits control flow for a boolean context.
func (g *irgen) genCond(e Expr, tBlk, fBlk int) {
	switch x := e.(type) {
	case *IntLit:
		if x.Val != 0 {
			g.brTo(tBlk)
		} else {
			g.brTo(fBlk)
		}
		return
	case *Unary:
		if x.Op == TokBang {
			g.genCond(x.X, fBlk, tBlk)
			return
		}
	case *Binary:
		switch x.Op {
		case TokAndAnd:
			mid := g.f.NewBlock()
			g.genCond(x.X, mid.ID, fBlk)
			g.cur = mid
			g.genCond(x.Y, tBlk, fBlk)
			return
		case TokOrOr:
			mid := g.f.NewBlock()
			g.genCond(x.X, tBlk, mid.ID)
			g.cur = mid
			g.genCond(x.Y, tBlk, fBlk)
			return
		case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
			v := g.genCompare(x)
			g.emit(Ins{Op: ICondBr, A: v, Imm: int64(tBlk), Imm2: int64(fBlk)})
			return
		}
	}
	v := g.genExpr(e)
	g.emit(Ins{Op: ICondBr, A: v, Imm: int64(tBlk), Imm2: int64(fBlk)})
}

// --- expressions -------------------------------------------------------------

var condOfTok = map[TokKind]isa.Cond{
	TokEq: isa.EQ, TokNe: isa.NE, TokLt: isa.LT, TokLe: isa.LE,
	TokGt: isa.GT, TokGe: isa.GE,
}

func (g *irgen) genCompare(x *Binary) VReg {
	a := g.genExpr(x.X)
	b := g.genExpr(x.Y)
	d := g.f.NewVReg(TI32)
	t := tyOf(x.X.Type())
	cond := condOfTok[x.Op]
	if t.IsFloat() {
		g.emit(Ins{Op: IFCmp, Ty: t, Cond: cond, Dst: d, A: a, B: b})
	} else {
		// Pointer comparisons are unsigned; MC addresses stay below 2^31,
		// so the signed forms coincide — use them uniformly like the
		// paper's compilers do.
		g.emit(Ins{Op: ICmp, Ty: TI32, Cond: cond, Dst: d, A: a, B: b})
	}
	return d
}

// genExpr evaluates e for value, returning the holding vreg (NoV for void).
func (g *irgen) genExpr(e Expr) VReg {
	switch x := e.(type) {
	case *IntLit:
		return g.constInt(x.Val)
	case *FloatLit:
		return g.constFloat(x.Val, tyOf(x.Ty))
	case *StrLit:
		d := g.f.NewVReg(TI32)
		g.emit(Ins{Op: IAddr, Ty: TI32, Dst: d, AK: AKGlobal, Sym: x.Label})
		return d
	case *Ident:
		return g.genLoadSym(x.Sym)
	case *Conv:
		return g.genConv(x)
	case *Unary:
		return g.genUnary(x)
	case *Binary:
		return g.genBinary(x)
	case *Assign:
		return g.genAssign(x)
	case *Index:
		ad := g.genAddr(x)
		return g.loadFrom(ad, x.Type())
	case *Call:
		return g.genCall(x)
	}
	panic(fmt.Sprintf("mcc: unknown expression %T", e))
}

func (g *irgen) genLoadSym(sym *Sym) VReg {
	if sym.VReg >= 0 {
		return VReg(sym.VReg)
	}
	switch sym.Kind {
	case SymGlobal:
		return g.loadFrom(addrDesc{ak: AKGlobal, sym: sym.Name}, sym.Ty)
	default:
		return g.loadFrom(addrDesc{ak: AKSlot, slot: sym.Slot}, sym.Ty)
	}
}

type addrDesc struct {
	ak   AddrKind
	base VReg
	sym  string
	slot int
	off  int32
}

func (g *irgen) loadFrom(ad addrDesc, t *Type) VReg {
	if t.K == KArray {
		// Array value = its address (decay happens here for globals/slots).
		return g.addrToReg(ad)
	}
	d := g.f.NewVReg(tyOf(t))
	g.emit(Ins{Op: ILoad, Ty: tyOf(t), Dst: d, AK: ad.ak, A: ad.base,
		Sym: ad.sym, Slot: ad.slot, Off: ad.off,
		Size: uint8(t.Size()), Signed: t.K == KChar})
	return d
}

func (g *irgen) storeTo(ad addrDesc, v VReg, t *Type) {
	g.emit(Ins{Op: IStore, Ty: tyOf(t), A: v, B: ad.base, AK: ad.ak,
		Sym: ad.sym, Slot: ad.slot, Off: ad.off, Size: uint8(t.Size())})
}

func (g *irgen) addrToReg(ad addrDesc) VReg {
	if ad.ak == AKReg && ad.off == 0 {
		return ad.base
	}
	d := g.f.NewVReg(TI32)
	g.emit(Ins{Op: IAddr, Ty: TI32, Dst: d, AK: ad.ak, A: ad.base,
		Sym: ad.sym, Slot: ad.slot, Off: ad.off})
	return d
}

// genAddr computes the address of an lvalue (or decayed array).
func (g *irgen) genAddr(e Expr) addrDesc {
	switch x := e.(type) {
	case *Ident:
		sym := x.Sym
		switch {
		case sym.Kind == SymGlobal:
			return addrDesc{ak: AKGlobal, sym: sym.Name}
		case sym.Slot >= 0:
			return addrDesc{ak: AKSlot, slot: sym.Slot}
		default:
			panic("mcc: address of register variable " + sym.Name)
		}
	case *StrLit:
		return addrDesc{ak: AKGlobal, sym: x.Label}
	case *Index:
		elem := x.Type()
		base := g.genAddrOfPointer(x.X)
		if lit, ok := x.I.(*IntLit); ok {
			base.off += int32(lit.Val) * int32(elem.Size())
			return base
		}
		idx := g.genExpr(x.I)
		scaled := g.scale(idx, elem.Size())
		b := g.addrToReg(base)
		sum := g.f.NewVReg(TI32)
		g.emit(Ins{Op: IAdd, Ty: TI32, Dst: sum, A: b, B: scaled})
		return addrDesc{ak: AKReg, base: sum}
	case *Unary:
		if x.Op == TokStar {
			p := g.genExpr(x.X)
			return addrDesc{ak: AKReg, base: p}
		}
	case *Conv:
		// Decayed array or pointer cast used as lvalue base.
		return g.genAddr(x.X)
	}
	panic(fmt.Sprintf("mcc: not an lvalue: %T", e))
}

// genAddrOfPointer evaluates a pointer-valued expression as an address
// descriptor, folding decayed arrays into direct global/slot bases.
func (g *irgen) genAddrOfPointer(e Expr) addrDesc {
	if c, ok := e.(*Conv); ok {
		inner := c.X
		if id, ok := inner.(*Ident); ok && id.Sym.Ty.K == KArray {
			return g.genAddr(id)
		}
	}
	return addrDesc{ak: AKReg, base: g.genExpr(e)}
}

// scale multiplies an index vreg by a (power-of-two) element size.
func (g *irgen) scale(v VReg, size int) VReg {
	if size == 1 {
		return v
	}
	sh := 0
	for s := size; s > 1; s >>= 1 {
		sh++
	}
	c := g.constInt(int64(sh))
	d := g.f.NewVReg(TI32)
	g.emit(Ins{Op: IShl, Ty: TI32, Dst: d, A: v, B: c})
	return d
}

func (g *irgen) genConv(x *Conv) VReg {
	src := x.X
	st, dt := src.Type(), x.Ty
	// Array decay / pointer reinterpretation: the value is unchanged.
	if st.K == KArray {
		return g.addrToReg(g.genAddr(src))
	}
	v := g.genExpr(src)
	if dt.K == KVoid {
		return NoV
	}
	sTy, dTy := tyOf(st), tyOf(dt)
	if sTy == dTy {
		return v
	}
	d := g.f.NewVReg(dTy)
	g.emit(Ins{Op: ICvt, Ty: dTy, SrcTy: sTy, Dst: d, A: v})
	return d
}

func (g *irgen) genUnary(x *Unary) VReg {
	switch x.Op {
	case TokMinus:
		v := g.genExpr(x.X)
		d := g.f.NewVReg(tyOf(x.Ty))
		op := INeg
		if tyOf(x.Ty).IsFloat() {
			op = IFNeg
		}
		g.emit(Ins{Op: op, Ty: tyOf(x.Ty), Dst: d, A: v})
		return d
	case TokTilde:
		v := g.genExpr(x.X)
		d := g.f.NewVReg(TI32)
		g.emit(Ins{Op: INot, Ty: TI32, Dst: d, A: v})
		return d
	case TokBang:
		v := g.genExpr(x.X)
		z := g.constInt(0)
		d := g.f.NewVReg(TI32)
		ty := tyOf(x.X.Type())
		if ty.IsFloat() {
			fz := g.constFloat(0, ty)
			g.emit(Ins{Op: IFCmp, Ty: ty, Cond: isa.EQ, Dst: d, A: v, B: fz})
		} else {
			g.emit(Ins{Op: ICmp, Ty: TI32, Cond: isa.EQ, Dst: d, A: v, B: z})
		}
		return d
	case TokStar:
		p := g.genExpr(x.X)
		return g.loadFrom(addrDesc{ak: AKReg, base: p}, x.Ty)
	case TokAmp:
		return g.addrToReg(g.genAddr(x.X))
	case TokInc, TokDec:
		return g.genIncDec(x)
	}
	panic("mcc: bad unary op")
}

func (g *irgen) genIncDec(x *Unary) VReg {
	t := x.Ty
	step := int64(1)
	if t.IsPtr() {
		step = int64(t.Elem.Size())
	}
	op := IAdd
	fop := IFAdd
	if x.Op == TokDec {
		op, fop = ISub, IFSub
	}

	// Register variable: operate in place.
	if id, ok := x.X.(*Ident); ok && id.Sym.VReg >= 0 {
		v := VReg(id.Sym.VReg)
		var old VReg
		if x.Post {
			old = g.f.NewVReg(tyOf(t))
			g.emit(Ins{Op: IMov, Ty: tyOf(t), Dst: old, A: v})
		}
		if tyOf(t).IsFloat() {
			one := g.constFloat(1, tyOf(t))
			g.emit(Ins{Op: fop, Ty: tyOf(t), Dst: v, A: v, B: one})
		} else {
			c := g.constInt(step)
			g.emit(Ins{Op: op, Ty: TI32, Dst: v, A: v, B: c})
		}
		if x.Post {
			return old
		}
		return v
	}

	// Memory lvalue: load, modify, store (address computed once).
	ad := g.genAddr(x.X)
	old := g.loadFrom(ad, t)
	var nw VReg
	if tyOf(t).IsFloat() {
		one := g.constFloat(1, tyOf(t))
		nw = g.f.NewVReg(tyOf(t))
		g.emit(Ins{Op: fop, Ty: tyOf(t), Dst: nw, A: old, B: one})
	} else {
		c := g.constInt(step)
		nw = g.f.NewVReg(TI32)
		g.emit(Ins{Op: op, Ty: TI32, Dst: nw, A: old, B: c})
	}
	g.storeTo(ad, nw, t)
	if x.Post {
		return old
	}
	return nw
}

var intOpOfTok = map[TokKind]IOp{
	TokPlus: IAdd, TokMinus: ISub, TokStar: IMul, TokSlash: IDiv,
	TokPercent: IRem, TokAmp: IAnd, TokPipe: IOr, TokCaret: IXor,
	TokShl: IShl, TokShr: ISra, // C >> on signed int is arithmetic here
}

var fltOpOfTok = map[TokKind]IOp{
	TokPlus: IFAdd, TokMinus: IFSub, TokStar: IFMul, TokSlash: IFDiv,
}

func (g *irgen) genBinary(x *Binary) VReg {
	switch x.Op {
	case TokAndAnd, TokOrOr:
		// Value context: evaluate via control flow into a temporary.
		d := g.f.NewVReg(TI32)
		tB := g.f.NewBlock()
		fB := g.f.NewBlock()
		exitB := g.f.NewBlock()
		g.genCond(x, tB.ID, fB.ID)
		g.cur = tB
		one := g.constInt(1)
		g.emit(Ins{Op: IMov, Ty: TI32, Dst: d, A: one})
		g.brTo(exitB.ID)
		g.cur = fB
		zero := g.constInt(0)
		g.emit(Ins{Op: IMov, Ty: TI32, Dst: d, A: zero})
		g.brTo(exitB.ID)
		g.cur = exitB
		return d

	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		return g.genCompare(x)
	}

	xt, yt := x.X.Type(), x.Y.Type()
	// Pointer arithmetic.
	if xt.IsPtr() || yt.IsPtr() {
		return g.genPtrArith(x)
	}

	a := g.genExpr(x.X)
	b := g.genExpr(x.Y)
	t := tyOf(x.Ty)
	d := g.f.NewVReg(t)
	if t.IsFloat() {
		g.emit(Ins{Op: fltOpOfTok[x.Op], Ty: t, Dst: d, A: a, B: b})
	} else {
		g.emit(Ins{Op: intOpOfTok[x.Op], Ty: TI32, Dst: d, A: a, B: b})
	}
	return d
}

func (g *irgen) genPtrArith(x *Binary) VReg {
	xt, yt := x.X.Type(), x.Y.Type()
	switch {
	case xt.IsPtr() && yt.IsPtr(): // ptr - ptr
		a := g.genExpr(x.X)
		b := g.genExpr(x.Y)
		diff := g.f.NewVReg(TI32)
		g.emit(Ins{Op: ISub, Ty: TI32, Dst: diff, A: a, B: b})
		size := xt.Elem.Size()
		if size == 1 {
			return diff
		}
		sh := 0
		for s := size; s > 1; s >>= 1 {
			sh++
		}
		c := g.constInt(int64(sh))
		d := g.f.NewVReg(TI32)
		g.emit(Ins{Op: ISra, Ty: TI32, Dst: d, A: diff, B: c})
		return d
	case xt.IsPtr():
		p := g.genExpr(x.X)
		i := g.genExpr(x.Y)
		scaled := g.scale(i, xt.Elem.Size())
		d := g.f.NewVReg(TI32)
		op := IAdd
		if x.Op == TokMinus {
			op = ISub
		}
		g.emit(Ins{Op: op, Ty: TI32, Dst: d, A: p, B: scaled})
		return d
	default: // int + ptr
		i := g.genExpr(x.X)
		p := g.genExpr(x.Y)
		scaled := g.scale(i, yt.Elem.Size())
		d := g.f.NewVReg(TI32)
		g.emit(Ins{Op: IAdd, Ty: TI32, Dst: d, A: p, B: scaled})
		return d
	}
}

func (g *irgen) genAssign(x *Assign) VReg {
	lt := x.LHS.Type()

	// Plain assignment.
	if x.Op == TokAssign {
		v := g.genExpr(x.RHS)
		g.storeValue(x.LHS, v, lt)
		return v
	}

	// Compound assignment: evaluate the lvalue address once.
	binOp := compoundOp[x.Op]

	// Pointer += / -=.
	if lt.IsPtr() {
		old, ad, reg := g.loadLValue(x.LHS, lt)
		i := g.genExpr(x.RHS)
		scaled := g.scale(i, lt.Elem.Size())
		op := IAdd
		if binOp == TokMinus {
			op = ISub
		}
		nw := g.f.NewVReg(TI32)
		g.emit(Ins{Op: op, Ty: TI32, Dst: nw, A: old, B: scaled})
		g.storeBack(ad, reg, nw, lt)
		return nw
	}

	ct := Common(lt, x.RHS.Type()) // computation type (sema converted RHS)
	old, ad, reg := g.loadLValue(x.LHS, lt)
	// Convert the loaded value to the computation type if needed.
	if tyOf(lt) != tyOf(ct) {
		cv := g.f.NewVReg(tyOf(ct))
		g.emit(Ins{Op: ICvt, Ty: tyOf(ct), SrcTy: tyOf(lt), Dst: cv, A: old})
		old = cv
	}
	r := g.genExpr(x.RHS)
	nw := g.f.NewVReg(tyOf(ct))
	if tyOf(ct).IsFloat() {
		g.emit(Ins{Op: fltOpOfTok[binOp], Ty: tyOf(ct), Dst: nw, A: old, B: r})
	} else {
		g.emit(Ins{Op: intOpOfTok[binOp], Ty: TI32, Dst: nw, A: old, B: r})
	}
	// Convert back for the store.
	res := nw
	if tyOf(ct) != tyOf(lt) {
		cv := g.f.NewVReg(tyOf(lt))
		g.emit(Ins{Op: ICvt, Ty: tyOf(lt), SrcTy: tyOf(ct), Dst: cv, A: nw})
		res = cv
	}
	g.storeBack(ad, reg, res, lt)
	return res
}

// loadLValue loads an lvalue's current value and returns how to store back:
// either a register variable (reg >= 0) or an address descriptor.
func (g *irgen) loadLValue(lhs Expr, t *Type) (VReg, addrDesc, int) {
	if id, ok := lhs.(*Ident); ok && id.Sym.VReg >= 0 {
		return VReg(id.Sym.VReg), addrDesc{}, id.Sym.VReg
	}
	ad := g.genAddr(lhs)
	return g.loadFrom(ad, t), ad, -1
}

func (g *irgen) storeBack(ad addrDesc, reg int, v VReg, t *Type) {
	if reg >= 0 {
		g.emit(Ins{Op: IMov, Ty: tyOf(t), Dst: VReg(reg), A: v})
		return
	}
	g.storeTo(ad, v, t)
}

func (g *irgen) storeValue(lhs Expr, v VReg, t *Type) {
	if id, ok := lhs.(*Ident); ok && id.Sym.VReg >= 0 {
		g.emit(Ins{Op: IMov, Ty: tyOf(t), Dst: VReg(id.Sym.VReg), A: v})
		return
	}
	ad := g.genAddr(lhs)
	g.storeTo(ad, v, t)
}

func (g *irgen) genCall(x *Call) VReg {
	var args []VReg
	for _, a := range x.Args {
		args = append(args, g.genExpr(a))
	}
	var d = NoV
	retTy := TI32
	if x.Ty.K != KVoid {
		retTy = tyOf(x.Ty)
		d = g.f.NewVReg(retTy)
	}
	if !IsBuiltin(x.Name) {
		g.f.HasCall = true
		if n := len(args) - isa.NumArgRegs; n > g.f.MaxOutArgs {
			// Conservative: assumes overflow counted across both classes.
			g.f.MaxOutArgs = n
		}
	}
	g.emit(Ins{Op: ICall, Ty: retTy, Dst: d, A: NoV, Sym: x.Name, Args: args,
		Builtin: IsBuiltin(x.Name)})
	return d
}
