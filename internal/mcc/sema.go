package mcc

// Semantic checks and implicit-conversion insertion, called from the
// parser as nodes are built. After checking, every expression node has a
// type; arrays appear only behind Conv-free decay (an Ident or Index whose
// type is KArray is always immediately consumed by & / [] / decay), and
// all arithmetic is performed on operands of identical type.

// Builtin print functions (mapped to simulator traps by the backend).
var builtins = map[string]struct {
	param *Type
	ret   *Type
}{
	"print_int":    {TypeInt, TypeVoid},
	"print_char":   {TypeInt, TypeVoid},
	"print_str":    {PtrTo(TypeChar), TypeVoid},
	"print_double": {TypeDouble, TypeVoid},
}

// IsBuiltin reports whether name is a compiler builtin.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// decay inserts array-to-pointer decay.
func (p *parser) decay(x Expr) Expr {
	if x.Type() != nil && x.Type().K == KArray {
		c := &Conv{exprBase{x.Pos(), x.Type().Decay()}, x}
		return c
	}
	return x
}

// convTo converts x to type t, folding literals and inserting Conv nodes
// for int<->float changes. char and int are register-identical.
func (p *parser) convTo(x Expr, t *Type) Expr {
	xt := x.Type()
	if xt.Same(t) {
		return x
	}
	// Literal folding.
	switch lit := x.(type) {
	case *IntLit:
		if t.IsFloat() {
			return &FloatLit{exprBase{x.Pos(), t}, float64(lit.Val)}
		}
		if t.IsInteger() || t.IsPtr() {
			lit.Ty = t
			return lit
		}
	case *FloatLit:
		if t.IsFloat() {
			lit.Ty = t
			return lit
		}
		if t.IsInteger() {
			return &IntLit{exprBase{x.Pos(), t}, int64(int32(lit.Val))}
		}
	}
	if xt.IsInteger() && t.IsInteger() {
		// char <-> int: no representation change in registers.
		c := &Conv{exprBase{x.Pos(), t}, x}
		return c
	}
	return &Conv{exprBase{x.Pos(), t}, x}
}

func (p *parser) checkIdent(pos Pos, name string) Expr {
	sym := p.lookup(name)
	if sym == nil {
		p.errf(pos, "undefined identifier %q", name)
		return &IntLit{exprBase{pos, TypeInt}, 0}
	}
	if sym.Kind == SymFunc {
		p.errf(pos, "function %q used as value", name)
		return &IntLit{exprBase{pos, TypeInt}, 0}
	}
	return &Ident{exprBase{pos, sym.Ty}, name, sym}
}

func (p *parser) checkCall(pos Pos, name string, args []Expr) Expr {
	if b, ok := builtins[name]; ok {
		if len(args) != 1 {
			p.errf(pos, "%s takes one argument", name)
			return &Call{exprBase{pos, b.ret}, name, args, nil}
		}
		a := p.decay(args[0])
		if b.param.IsArith() && a.Type().IsArith() {
			a = p.convTo(a, b.param)
		} else if !a.Type().Same(b.param) && !(b.param.IsPtr() && a.Type().IsPtr()) {
			p.errf(pos, "%s argument has type %s, want %s", name, a.Type(), b.param)
		}
		return &Call{exprBase{pos, b.ret}, name, []Expr{a}, nil}
	}
	sym := p.globals[name]
	if sym == nil || sym.Kind != SymFunc {
		p.errf(pos, "call to undefined function %q", name)
		return &Call{exprBase{pos, TypeInt}, name, args, nil}
	}
	if len(args) != len(sym.Params) {
		p.errf(pos, "%q takes %d arguments, got %d", name, len(sym.Params), len(args))
	}
	for i := range args {
		args[i] = p.decay(args[i])
		if i < len(sym.Params) {
			want := sym.Params[i].Ty
			at := args[i].Type()
			switch {
			case want.IsArith() && at.IsArith():
				args[i] = p.convTo(args[i], want)
			case want.IsPtr() && at.IsPtr():
				// Pointers interconvert freely in MC.
			case want.IsPtr() && isZeroLit(args[i]):
			default:
				if !at.Same(want) {
					p.errf(args[i].Pos(), "argument %d has type %s, want %s", i+1, at, want)
				}
			}
		}
	}
	return &Call{exprBase{pos, sym.Ret}, name, args, sym}
}

func isZeroLit(x Expr) bool {
	lit, ok := x.(*IntLit)
	return ok && lit.Val == 0
}

func (p *parser) checkIndex(pos Pos, x, idx Expr) Expr {
	x = p.decay(x)
	if !x.Type().IsPtr() {
		p.errf(pos, "indexed expression has type %s, want pointer or array", x.Type())
		return &IntLit{exprBase{pos, TypeInt}, 0}
	}
	if !idx.Type().IsInteger() {
		p.errf(pos, "array index has type %s, want integer", idx.Type())
	}
	return &Index{exprBase{pos, x.Type().Elem}, x, p.convTo(idx, TypeInt)}
}

// lvalue reports whether x can be assigned to / address-taken.
func lvalue(x Expr) bool {
	switch v := x.(type) {
	case *Ident:
		return v.Sym.Ty.K != KArray
	case *Index:
		return true
	case *Unary:
		return v.Op == TokStar
	}
	return false
}

func (p *parser) checkUnary(pos Pos, op TokKind, x Expr) Expr {
	switch op {
	case TokMinus:
		x = p.decay(x)
		if !x.Type().IsArith() {
			p.errf(pos, "cannot negate %s", x.Type())
			return x
		}
		switch lit := x.(type) {
		case *IntLit:
			lit.Val = int64(int32(-lit.Val))
			return lit
		case *FloatLit:
			lit.Val = -lit.Val
			return lit
		}
		t := x.Type()
		if t.K == KChar {
			t = TypeInt
		}
		return &Unary{exprBase{pos, t}, op, false, x}
	case TokTilde:
		x = p.decay(x)
		if !x.Type().IsInteger() {
			p.errf(pos, "cannot complement %s", x.Type())
			return x
		}
		if lit, ok := x.(*IntLit); ok {
			lit.Val = int64(^int32(lit.Val))
			return lit
		}
		return &Unary{exprBase{pos, TypeInt}, op, false, x}
	case TokBang:
		x = p.decay(x)
		if !x.Type().IsScalar() {
			p.errf(pos, "cannot logically negate %s", x.Type())
		}
		if lit, ok := x.(*IntLit); ok {
			if lit.Val == 0 {
				lit.Val = 1
			} else {
				lit.Val = 0
			}
			lit.Ty = TypeInt
			return lit
		}
		return &Unary{exprBase{pos, TypeInt}, op, false, x}
	case TokStar:
		x = p.decay(x)
		if !x.Type().IsPtr() {
			p.errf(pos, "cannot dereference %s", x.Type())
			return &IntLit{exprBase{pos, TypeInt}, 0}
		}
		return &Unary{exprBase{pos, x.Type().Elem}, op, false, x}
	case TokAmp:
		if !lvalue(x) {
			// &array is the array's address: allow it explicitly.
			if id, ok := x.(*Ident); ok && id.Sym.Ty.K == KArray {
				return &Conv{exprBase{pos, PtrTo(id.Sym.Ty.Elem)}, x}
			}
			p.errf(pos, "cannot take the address of this expression")
			return &IntLit{exprBase{pos, TypeInt}, 0}
		}
		if id, ok := x.(*Ident); ok && id.Sym.Kind != SymGlobal {
			// Taking a scalar local's address forces it into memory.
			id.Sym.Slot = -2 // flag for irgen: demote to stack
		}
		return &Unary{exprBase{pos, PtrTo(x.Type())}, op, false, x}
	}
	p.errf(pos, "bad unary operator")
	return x
}

func (p *parser) checkIncDec(pos Pos, op TokKind, x Expr, post bool) Expr {
	if !lvalue(x) {
		p.errf(pos, "++/-- requires an lvalue")
		return x
	}
	t := x.Type()
	if !t.IsScalar() {
		p.errf(pos, "++/-- requires a scalar, got %s", t)
	}
	return &Unary{exprBase{pos, t}, op, post, x}
}

func (p *parser) checkCast(pos Pos, t *Type, x Expr) Expr {
	x = p.decay(x)
	xt := x.Type()
	switch {
	case t.Same(xt):
		return x
	case t.IsArith() && xt.IsArith():
		return p.convTo(x, t)
	case t.IsPtr() && (xt.IsPtr() || xt.IsInteger()):
		return &Conv{exprBase{pos, t}, x}
	case t.IsInteger() && xt.IsPtr():
		return &Conv{exprBase{pos, t}, x}
	case t.K == KVoid:
		return &Conv{exprBase{pos, t}, x}
	}
	p.errf(pos, "cannot cast %s to %s", xt, t)
	return x
}

func (p *parser) checkBinary(pos Pos, op TokKind, x, y Expr) Expr {
	x, y = p.decay(x), p.decay(y)
	xt, yt := x.Type(), y.Type()

	switch op {
	case TokAndAnd, TokOrOr:
		if !xt.IsScalar() || !yt.IsScalar() {
			p.errf(pos, "logical operator needs scalar operands")
		}
		return &Binary{exprBase{pos, TypeInt}, op, x, y}

	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		switch {
		case xt.IsArith() && yt.IsArith():
			c := Common(xt, yt)
			x, y = p.convTo(x, c), p.convTo(y, c)
		case xt.IsPtr() && yt.IsPtr():
		case xt.IsPtr() && isZeroLit(y), yt.IsPtr() && isZeroLit(x):
		default:
			p.errf(pos, "cannot compare %s and %s", xt, yt)
		}
		if f := foldCompare(op, x, y); f != nil {
			return f
		}
		return &Binary{exprBase{pos, TypeInt}, op, x, y}

	case TokPlus, TokMinus:
		switch {
		case xt.IsPtr() && yt.IsInteger():
			return &Binary{exprBase{pos, xt}, op, x, p.convTo(y, TypeInt)}
		case op == TokPlus && xt.IsInteger() && yt.IsPtr():
			return &Binary{exprBase{pos, yt}, op, p.convTo(x, TypeInt), y}
		case op == TokMinus && xt.IsPtr() && yt.IsPtr():
			return &Binary{exprBase{pos, TypeInt}, op, x, y}
		}
		fallthrough

	case TokStar, TokSlash:
		if !xt.IsArith() || !yt.IsArith() {
			p.errf(pos, "operator %s needs arithmetic operands, got %s and %s", op, xt, yt)
			return &IntLit{exprBase{pos, TypeInt}, 0}
		}
		c := Common(xt, yt)
		x, y = p.convTo(x, c), p.convTo(y, c)
		if f := foldArith(op, x, y); f != nil {
			return f
		}
		return &Binary{exprBase{pos, c}, op, x, y}

	case TokPercent, TokAmp, TokPipe, TokCaret, TokShl, TokShr:
		if !xt.IsInteger() || !yt.IsInteger() {
			p.errf(pos, "operator %s needs integer operands, got %s and %s", op, xt, yt)
			return &IntLit{exprBase{pos, TypeInt}, 0}
		}
		x, y = p.convTo(x, TypeInt), p.convTo(y, TypeInt)
		if f := foldArith(op, x, y); f != nil {
			return f
		}
		return &Binary{exprBase{pos, TypeInt}, op, x, y}
	}
	p.errf(pos, "bad binary operator %s", op)
	return x
}

// foldArith folds literal-literal arithmetic at compile time.
func foldArith(op TokKind, x, y Expr) Expr {
	xi, xok := x.(*IntLit)
	yi, yok := y.(*IntLit)
	if xok && yok {
		a, b := int32(xi.Val), int32(yi.Val)
		var v int32
		switch op {
		case TokPlus:
			v = a + b
		case TokMinus:
			v = a - b
		case TokStar:
			v = a * b
		case TokSlash:
			if b == 0 {
				return nil
			}
			v = a / b
		case TokPercent:
			if b == 0 {
				return nil
			}
			v = a % b
		case TokAmp:
			v = a & b
		case TokPipe:
			v = a | b
		case TokCaret:
			v = a ^ b
		case TokShl:
			v = a << (uint32(b) & 31)
		case TokShr:
			v = a >> (uint32(b) & 31)
		default:
			return nil
		}
		return &IntLit{exprBase{x.Pos(), TypeInt}, int64(v)}
	}
	xf, xok := x.(*FloatLit)
	yf, yok := y.(*FloatLit)
	if xok && yok {
		var v float64
		switch op {
		case TokPlus:
			v = xf.Val + yf.Val
		case TokMinus:
			v = xf.Val - yf.Val
		case TokStar:
			v = xf.Val * yf.Val
		case TokSlash:
			if yf.Val == 0 {
				return nil
			}
			v = xf.Val / yf.Val
		default:
			return nil
		}
		return &FloatLit{exprBase{x.Pos(), xf.Ty}, v}
	}
	return nil
}

func foldCompare(op TokKind, x, y Expr) Expr {
	xi, xok := x.(*IntLit)
	yi, yok := y.(*IntLit)
	if !xok || !yok {
		return nil
	}
	a, b := int32(xi.Val), int32(yi.Val)
	var v bool
	switch op {
	case TokEq:
		v = a == b
	case TokNe:
		v = a != b
	case TokLt:
		v = a < b
	case TokLe:
		v = a <= b
	case TokGt:
		v = a > b
	case TokGe:
		v = a >= b
	}
	r := int64(0)
	if v {
		r = 1
	}
	return &IntLit{exprBase{x.Pos(), TypeInt}, r}
}

func (p *parser) checkAssign(pos Pos, op TokKind, lhs, rhs Expr) Expr {
	if !lvalue(lhs) {
		p.errf(pos, "assignment target is not an lvalue")
		return rhs
	}
	lt := lhs.Type()
	if op == TokAssign {
		rhs = p.checkAssignConv(pos, lt, rhs)
		return &Assign{exprBase{pos, lt}, op, lhs, rhs}
	}
	// Compound assignment: type-check as the corresponding binary op.
	binOp := compoundOp[op]
	if lt.IsPtr() && (binOp == TokPlus || binOp == TokMinus) {
		if !rhs.Type().IsInteger() {
			p.errf(pos, "pointer %s needs an integer operand", op)
		}
		return &Assign{exprBase{pos, lt}, op, lhs, p.convTo(p.decay(rhs), TypeInt)}
	}
	if !lt.IsArith() {
		p.errf(pos, "compound assignment to %s", lt)
		return rhs
	}
	rhs = p.decay(rhs)
	if !rhs.Type().IsArith() {
		p.errf(pos, "operator %s needs an arithmetic operand", op)
		return rhs
	}
	// RHS computes in the common type; result converts back on store.
	c := Common(lt, rhs.Type())
	rhs = p.convTo(rhs, c)
	return &Assign{exprBase{pos, lt}, op, lhs, rhs}
}

// checkAssignConv converts an initializer/assignment RHS to the target
// type.
func (p *parser) checkAssignConv(pos Pos, lt *Type, rhs Expr) Expr {
	rhs = p.decay(rhs)
	rt := rhs.Type()
	switch {
	case lt.IsArith() && rt.IsArith():
		return p.convTo(rhs, lt)
	case lt.IsPtr() && (rt.IsPtr() || isZeroLit(rhs)):
		return rhs
	case lt.Same(rt):
		return rhs
	}
	p.errf(pos, "cannot assign %s to %s", rt, lt)
	return rhs
}

// checkCond validates a branch condition.
func (p *parser) checkCond(x Expr) Expr {
	x = p.decay(x)
	if !x.Type().IsScalar() {
		p.errf(x.Pos(), "condition has type %s, want scalar", x.Type())
	}
	return x
}

func (p *parser) checkReturn(pos Pos, x Expr) Stmt {
	fn := p.curFn
	if fn == nil {
		p.errf(pos, "return outside function")
		return &ReturnStmt{stmtBase{pos}, nil}
	}
	if fn.Ret.K == KVoid {
		if x != nil {
			p.errf(pos, "void function %q returns a value", fn.Name)
		}
		return &ReturnStmt{stmtBase{pos}, nil}
	}
	if x == nil {
		p.errf(pos, "function %q must return %s", fn.Name, fn.Ret)
		return &ReturnStmt{stmtBase{pos}, nil}
	}
	return &ReturnStmt{stmtBase{pos}, p.checkAssignConv(pos, fn.Ret, x)}
}
