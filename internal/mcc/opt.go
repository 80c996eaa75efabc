package mcc

import (
	"slices"

	"repro/internal/isa"
)

// The optimizer. Passes are deliberately the kind a production compiler of
// the paper's era runs (GCC 2.1 at -O): local constant and copy
// propagation, constant folding, strength reduction of multiplications by
// powers of two, local common-subexpression elimination (including loads,
// invalidated at stores and calls), dead-code elimination, and branch
// simplification with unreachable-block removal.
//
// Legalize is target-aware: it exposes out-of-range global/frame addresses
// as explicit address computations so CSE can share them — this is where
// the D16 displacement limits turn into extra (but shareable)
// instructions, matching the paper's Section 3.3.3 observations.

// Optimize runs the pass pipeline on f. It is target-parameterized the
// way the paper's compiler is: immediate formation consults the spec's
// field widths, so a constant the target cannot encode stays a separate
// (hoistable, CSE-able) materialization.
func Optimize(f *IRFunc, spec *isa.Spec) { new(optimizer).run(f, spec) }

// run optimizes f with o's tables; a compile runs every function, three
// times each, through one optimizer.
func (o *optimizer) run(f *IRFunc, spec *isa.Spec) {
	o.reset(f, spec)
	for i := 0; i < 3; i++ {
		changed := false
		for _, b := range f.Blocks {
			changed = o.localOpt(b) || changed
			changed = o.localCSE(b) || changed
		}
		changed = o.deadCode() || changed
		changed = foldBranches(f) || changed
		changed = pruneBlocks(f) || changed
		if !changed {
			break
		}
	}
}

// optimizer holds the block-local passes' tables. VRegs are dense
// (0..f.NReg-1) and no pass here allocates one, so the per-VReg tables
// are slices, shared by every block, iteration and function the
// optimizer runs. Nothing is cleared between them: gen counts
// definitions over the optimizer's life, each block walk starts a fresh
// generation, and a fact recorded before it reads as absent.
type optimizer struct {
	f     *IRFunc
	spec  *isa.Spec
	gen   int
	regs  []regFacts
	uses  []int             // deadCode's use counts
	avail map[cseKey]cseVal // localCSE's expressions
}

// regFacts is what the optimizer knows of one VReg: the generation of
// its last definition, and localOpt's constant value and copy source,
// each valid while the generation it was recorded at is still the last
// definition (a copy also while its source keeps definition srcGen).
type regFacts struct {
	redef, constGen, copyGen, srcGen int
	constVal                         int64
	copyOf                           VReg
}

// cseVal is an available expression: the VReg holding it and the
// generation it was computed at.
type cseVal struct {
	v    VReg
	born int
}

// reset points o at f, growing its tables to f's VRegs.
func (o *optimizer) reset(f *IRFunc, spec *isa.Spec) {
	o.f, o.spec = f, spec
	if cap(o.regs) < f.NReg {
		o.regs, o.uses = make([]regFacts, f.NReg, 2*f.NReg), make([]int, f.NReg, 2*f.NReg)
	}
	o.regs, o.uses = o.regs[:f.NReg], o.uses[:f.NReg]
	if o.avail == nil {
		o.avail = map[cseKey]cseVal{}
	}
	clear(o.avail)
}

// define records a definition of v and returns its generation.
func (o *optimizer) define(v VReg) int {
	o.gen++
	o.regs[v].redef = o.gen
	return o.gen
}

// immEncodable reports whether the target has an immediate form of op
// that encodes v (the decision behind the paper's immediate-field
// ablation). cond matters only for compares (D16+'s compare-equal
// immediate accepts eq only).
func immEncodable(spec *isa.Spec, op IOp, cond isa.Cond, v int64) bool {
	switch op {
	case IAdd, ISub:
		return (v >= 0 && spec.FitsALUImm(int32(v))) ||
			(v < 0 && -v <= int64(spec.MaxALUImm()))
	case IShl, IShr, ISra:
		return v >= 0 && v <= 31
	case IAnd, IOr, IXor:
		return spec.HasLogicalImm && v >= 0 && v <= 0xFFFF
	case ICmp:
		if spec.HasCmpImm {
			return v >= -32768 && v <= 32767
		}
		return spec.CmpImm8 && cond == isa.EQ && v >= 0 && v <= 255
	case IMul, IDiv, IRem:
		// Lowered later: strength reduction wants the constant visible.
		return true
	}
	return false
}

// localOpt does constant/copy propagation and folding within one block.
func (o *optimizer) localOpt(b *Block) bool {
	changed := false
	o.gen++
	start := o.gen // facts recorded before this generation are stale
	constOf := func(v VReg) (int64, bool) {
		r := &o.regs[v]
		return r.constVal, r.constGen >= start && r.constGen == r.redef
	}
	resolve := func(v VReg) VReg {
		if r := &o.regs[v]; r.copyGen >= start && r.copyGen == r.redef &&
			o.regs[r.copyOf].redef == r.srcGen {
			return r.copyOf
		}
		return v
	}

	for i := range b.Ins {
		in := &b.Ins[i]

		// Rewrite operands through known copies.
		rw := func(p *VReg) {
			if *p != NoV {
				if r := resolve(*p); r != *p {
					*p = r
					changed = true
				}
			}
		}
		switch in.Op {
		case ILoad, IAddr:
			if in.AK == AKReg {
				rw(&in.A)
			}
		case IStore:
			rw(&in.A)
			if in.AK == AKReg {
				rw(&in.B)
			}
		case ICall:
			for j := range in.Args {
				rw(&in.Args[j])
			}
		default:
			rw(&in.A)
			if !in.HasBImm {
				rw(&in.B)
			}
		}

		// Constant folding happens regardless of encodability.
		if in.Ty == TI32 && in.A != NoV && in.B != NoV {
			if av, aok := constOf(in.A); aok {
				if bv, bok := constOf(in.B); bok {
					if in.Op == ICmp {
						v := int64(0)
						if in.Cond.EvalInt(int32(av), int32(bv)) {
							v = 1
						}
						*in = Ins{Op: IConst, Ty: TI32, Dst: in.Dst, Imm: v}
						changed = true
					} else if v, ok := foldInt(in.Op, av, bv); ok {
						*in = Ins{Op: IConst, Ty: TI32, Dst: in.Dst, Imm: v}
						changed = true
					}
				}
			}
		}

		// Immediate formation: a constant B operand becomes BImm when the
		// target can encode it.
		if !in.HasBImm && in.B != NoV && in.Ty == TI32 {
			if cv, ok := constOf(in.B); ok && immEncodable(o.spec, in.Op, in.Cond, cv) {
				switch in.Op {
				case IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor,
					IShl, IShr, ISra, ICmp:
					in.HasBImm, in.BImm, in.B = true, cv, NoV
					changed = true
				}
			}
		}
		// Commute a constant left operand into BImm where legal.
		if !in.HasBImm && in.A != NoV && in.B != NoV && in.Ty == TI32 {
			if cv, ok := constOf(in.A); ok {
				switch in.Op {
				case IAdd, IAnd, IOr, IXor, IMul:
					if immEncodable(o.spec, in.Op, in.Cond, cv) {
						in.A = in.B
						in.HasBImm, in.BImm, in.B = true, cv, NoV
						changed = true
					}
				case ICmp:
					if immEncodable(o.spec, ICmp, in.Cond.Swapped(), cv) {
						in.A = in.B
						in.HasBImm, in.BImm, in.B = true, cv, NoV
						in.Cond = in.Cond.Swapped()
						changed = true
					}
				}
			}
		}

		// Folding and algebraic simplification.
		if in.Ty == TI32 && in.HasBImm {
			if av, ok := constOf(in.A); ok && in.Op != ICmp {
				if v, ok := foldInt(in.Op, av, in.BImm); ok {
					*in = Ins{Op: IConst, Ty: TI32, Dst: in.Dst, Imm: v}
					changed = true
				}
			} else if av, ok := constOf(in.A); ok && in.Op == ICmp {
				v := int64(0)
				if in.Cond.EvalInt(int32(av), int32(in.BImm)) {
					v = 1
				}
				*in = Ins{Op: IConst, Ty: TI32, Dst: in.Dst, Imm: v}
				changed = true
			} else {
				changed = simplifyAlgebraic(in) || changed
			}
		}

		// Strength reduction: multiply by a power of two.
		if in.Op == IMul && in.HasBImm && in.BImm > 0 && in.BImm&(in.BImm-1) == 0 {
			sh := int64(0)
			for v := in.BImm; v > 1; v >>= 1 {
				sh++
			}
			in.Op, in.BImm = IShl, sh
			changed = true
		}

		// Update the local environment.
		// A definition retires every fact about d and every copy of d.
		if d := in.def(); d != NoV {
			g := o.define(d)
			r := &o.regs[d]
			switch {
			case in.Op == IConst && in.Ty == TI32:
				r.constGen, r.constVal = g, in.Imm
			case in.Op == IMov && in.A != d:
				src := resolve(in.A)
				r.copyGen, r.copyOf, r.srcGen = g, src, o.regs[src].redef
				if cv, ok := constOf(src); ok {
					r.constGen, r.constVal = g, cv
				}
			}
		}
	}
	return changed
}

// foldInt evaluates a constant integer operation with 32-bit semantics.
func foldInt(op IOp, a, b int64) (int64, bool) {
	x, y := int32(a), int32(b)
	switch op {
	case IAdd:
		return int64(x + y), true
	case ISub:
		return int64(x - y), true
	case IMul:
		return int64(x * y), true
	case IDiv:
		if y == 0 {
			return 0, false
		}
		return int64(x / y), true
	case IRem:
		if y == 0 {
			return 0, false
		}
		return int64(x % y), true
	case IAnd:
		return int64(x & y), true
	case IOr:
		return int64(x | y), true
	case IXor:
		return int64(x ^ y), true
	case IShl:
		return int64(x << (uint32(y) & 31)), true
	case IShr:
		return int64(int32(uint32(x) >> (uint32(y) & 31))), true
	case ISra:
		return int64(x >> (uint32(y) & 31)), true
	}
	return 0, false
}

// simplifyAlgebraic rewrites identities: x+0, x*1, x*0, x&0, x|0, x<<0...
func simplifyAlgebraic(in *Ins) bool {
	b := in.BImm
	switch in.Op {
	case IAdd, ISub, IOr, IXor, IShl, IShr, ISra:
		if b == 0 {
			*in = Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: in.A}
			return true
		}
	case IMul:
		switch b {
		case 0:
			*in = Ins{Op: IConst, Ty: in.Ty, Dst: in.Dst, Imm: 0}
			return true
		case 1:
			*in = Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: in.A}
			return true
		}
	case IDiv:
		if b == 1 {
			*in = Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: in.A}
			return true
		}
	case IAnd:
		if b == 0 {
			*in = Ins{Op: IConst, Ty: in.Ty, Dst: in.Dst, Imm: 0}
			return true
		}
		if b == -1 {
			*in = Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: in.A}
			return true
		}
	}
	return false
}

// cseKey identifies a pure computation for local CSE.
type cseKey struct {
	op     IOp
	ty     Ty
	srcTy  Ty
	cond   isa.Cond
	a, b   VReg
	hasImm bool
	imm    int64
	fimm   float64
	ak     AddrKind
	sym    string
	slot   int
	off    int32
	size   uint8
	signed bool
	memGen int // loads: invalidated when memory may change
}

// localCSE eliminates repeated pure computations (and repeated loads
// between memory-clobbering points) within a block.
func (o *optimizer) localCSE(b *Block) bool {
	changed := false
	memGen := 0
	o.gen++
	start := o.gen // expressions born before this generation are stale

	for i := range b.Ins {
		in := &b.Ins[i]
		// Account the definition FIRST: an expression's own def must not
		// look like a later redefinition when a duplicate checks it.
		if d := in.def(); d != NoV {
			o.define(d)
		}
		var key cseKey
		pure := false
		switch in.Op {
		case IConst:
			key = cseKey{op: IConst, ty: in.Ty, imm: in.Imm, fimm: in.FImm}
			pure = true
		case IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IShr, ISra,
			INeg, INot, ICmp, IFAdd, IFSub, IFMul, IFDiv, IFNeg, IFCmp, ICvt:
			key = cseKey{op: in.Op, ty: in.Ty, srcTy: in.SrcTy, cond: in.Cond,
				a: in.A, b: in.B, hasImm: in.HasBImm, imm: in.BImm}
			pure = in.Op != IDiv && in.Op != IRem // division kept for traps
		case IAddr:
			key = cseKey{op: IAddr, a: in.A, ak: in.AK, sym: in.Sym,
				slot: in.Slot, off: in.Off}
			pure = true
		case ILoad:
			key = cseKey{op: ILoad, ty: in.Ty, a: in.A, ak: in.AK, sym: in.Sym,
				slot: in.Slot, off: in.Off, size: in.Size, signed: in.Signed,
				memGen: memGen}
			pure = true
		case IStore, ICall:
			memGen++
		}
		if pure && in.Dst != NoV {
			if prev, ok := o.avail[key]; ok && prev.born >= start && prev.v != in.Dst &&
				o.regs[prev.v].redef <= prev.born && o.operandsValid(in, prev.born) {
				*in = Ins{Op: IMov, Ty: in.Ty, Dst: in.Dst, A: prev.v}
				changed = true
			} else {
				o.avail[key] = cseVal{in.Dst, o.gen}
			}
		}
	}
	return changed
}

// operandsValid checks that an instruction's operands have not been
// redefined since the candidate expression was computed.
func (o *optimizer) operandsValid(in *Ins, bornGen int) bool {
	var buf [4]VReg
	for _, u := range in.uses(buf[:0]) {
		if o.regs[u].redef > bornGen {
			return false
		}
	}
	return true
}

// deadCode removes instructions whose results are never used.
func (o *optimizer) deadCode() bool {
	changed := false
	for {
		clear(o.uses)
		for _, b := range o.f.Blocks {
			for i := range b.Ins {
				var buf [4]VReg
				for _, u := range b.Ins[i].uses(buf[:0]) {
					o.uses[u]++
				}
			}
		}
		removed := false
		for _, b := range o.f.Blocks {
			out := b.Ins[:0]
			for i := range b.Ins {
				in := b.Ins[i]
				d := in.def()
				if d != NoV && o.uses[d] == 0 && !in.hasSideEffects() {
					removed = true
					continue
				}
				// Dead call results become void calls.
				if in.Op == ICall && in.Dst != NoV && o.uses[in.Dst] == 0 {
					in.Dst = NoV
				}
				out = append(out, in)
			}
			b.Ins = out
		}
		if !removed {
			return changed
		}
		changed = true
	}
}

// foldBranches turns constant conditional branches into unconditional
// ones. (The constant operand is detected through an IConst def appearing
// earlier in the same block.)
func foldBranches(f *IRFunc) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ICondBr {
			continue
		}
		cv, ok := blockConst(b, t.A)
		if !ok {
			continue
		}
		target := t.Imm
		if cv == 0 {
			target = t.Imm2
		}
		*t = Ins{Op: IBr, Imm: target}
		changed = true
	}
	return changed
}

func blockConst(b *Block, v VReg) (int64, bool) {
	var val int64
	found := false
	for i := range b.Ins {
		in := &b.Ins[i]
		if in.def() == v {
			if in.Op == IConst && in.Ty == TI32 {
				val, found = in.Imm, true
			} else {
				found = false
			}
		}
	}
	return val, found
}

// pruneBlocks removes unreachable blocks and threads trivial jumps
// (a block containing only "br X" is bypassed).
func pruneBlocks(f *IRFunc) bool {
	changed := false
	n := f.NBlock

	// Jump threading. seen holds the stamp of the resolve call that last
	// visited a block, so a threading cycle stops where it closes.
	thread := make([]int, n)
	seen := make([]int, n)
	for i := range thread {
		thread[i] = -1
	}
	for _, b := range f.Blocks {
		if len(b.Ins) == 1 && b.Ins[0].Op == IBr {
			thread[b.ID] = int(b.Ins[0].Imm)
		}
	}
	stamp := 0
	resolve := func(id int) int {
		stamp++
		for {
			nxt := thread[id]
			if nxt < 0 || seen[id] == stamp {
				return id
			}
			seen[id] = stamp
			id = nxt
		}
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case IBr:
			if n := resolve(int(t.Imm)); n != int(t.Imm) {
				t.Imm = int64(n)
				changed = true
			}
		case ICondBr:
			if n := resolve(int(t.Imm)); n != int(t.Imm) {
				t.Imm = int64(n)
				changed = true
			}
			if n := resolve(int(t.Imm2)); n != int(t.Imm2) {
				t.Imm2 = int64(n)
				changed = true
			}
		}
	}

	// Reachability.
	byID := f.blocksByID()
	reach := make([]bool, n)
	reach[0] = true
	work := []int{0}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range byID[id].Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	out := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.ID] {
			out = append(out, b)
		} else {
			changed = true
		}
	}
	f.Blocks = out
	return changed
}

// --- target-aware legalization ----------------------------------------------

// Legalize rewrites addressing that the target cannot encode into
// explicit address arithmetic, so that CSE can share the expensive
// address computations (GCC exposes addresses the same way). layout maps
// global symbol names to their offsets from the data base (gp).
func Legalize(f *IRFunc, spec *isa.Spec, layout map[string]int32) {
	f.rewrite(func(in Ins) bool {
		return (in.Op == ILoad || in.Op == IStore) && !addrEncodable(&in, spec, layout)
	}, func(out []Ins, in Ins) []Ins {
		// addr = &X; access [addr + 0]
		av := f.NewVReg(TI32)
		addr := Ins{Op: IAddr, Ty: TI32, Dst: av, AK: in.AK, A: in.A,
			Sym: in.Sym, Slot: in.Slot, Off: in.Off}
		if in.Op == IStore {
			addr.A = NoV
			if in.AK == AKReg {
				addr.A = in.B
			}
		}
		in.AK, in.Off, in.Sym, in.Slot = AKReg, 0, "", -1
		if in.Op == IStore {
			in.B = av
		} else {
			in.A = av
		}
		return append(out, addr, in)
	})
}

// rewrite rebuilds each block holding an instruction match accepts: lower
// appends such an instruction's replacement to out, and the rest stay.
// A block with no match keeps its instructions.
func (f *IRFunc) rewrite(match func(Ins) bool, lower func(out []Ins, in Ins) []Ins) {
	for _, b := range f.Blocks {
		if !slices.ContainsFunc(b.Ins, match) {
			continue
		}
		var out []Ins
		for _, in := range b.Ins {
			if match(in) {
				out = lower(out, in)
			} else {
				out = append(out, in)
			}
		}
		b.Ins = out
	}
}

// addrEncodable predicts whether the access can use a direct displacement
// on the target. Slot offsets are not final before register allocation,
// so slot accesses are left alone here (the code generator re-checks and
// falls back to scratch-register arithmetic for over-range frames).
func addrEncodable(in *Ins, spec *isa.Spec, layout map[string]int32) bool {
	subword := in.Size == 1 || in.Size == 2
	if subword && !spec.SubwordDisp {
		// Sub-word modes take no displacement at all on D16: only a bare
		// register base with zero offset can encode.
		return in.AK == AKReg && in.Off == 0
	}
	wide := in.Size == 8 // doubles access off and off+4
	switch in.AK {
	case AKReg:
		if in.Off == 0 && !wide {
			return true
		}
		return fitsDisp(spec, in.Off, subword) && (!wide || fitsDisp(spec, in.Off+4, subword))
	case AKGlobal:
		off, ok := layout[in.Sym]
		if !ok {
			return false
		}
		return fitsDisp(spec, off+in.Off, subword) && (!wide || fitsDisp(spec, off+in.Off+4, subword))
	case AKSlot:
		return true // re-checked at code generation
	}
	return true
}

func fitsDisp(spec *isa.Spec, off int32, subword bool) bool {
	if subword {
		return spec.SubwordDisp && off >= -32768 && off <= 32767
	}
	// Word accesses: double-word accesses need off+4 encodable too.
	return spec.FitsMemDisp(off)
}

// Hoist performs the loop-invariant code motion a period optimizing
// compiler does naturally by keeping addresses and constants in
// pseudo-registers: zero-operand pure instructions (constants, global and
// frame addresses) inside a loop move to the loop's preheader. This is
// what keeps D16's expensive address materializations (literal-pool
// loads) out of inner loops, exactly as the paper's Section 3.4 assumes
// ("the better a compiler is able to move expensive operations out of
// inner loops, the less effect these instructions have").
//
// Hoisting is cost-driven, like GCC's: only materializations that cost
// the target at least two instructions or a memory access move out;
// cheap single-instruction constants rematerialize in place rather than
// occupy a register (spilling a hoisted value would just trade pool
// loads for stack traffic).
func Hoist(f *IRFunc, spec *isa.Spec, layout map[string]int32) {
	byID := f.blocksByID()
	// A vreg is hoistable only if it has exactly one definition.
	defCount := make([]int, f.NReg)
	for _, b := range f.Blocks {
		for i := range b.Ins {
			if d := b.Ins[i].def(); d != NoV {
				defCount[d]++
			}
		}
	}

	expensive := func(in *Ins) bool {
		switch in.Op {
		case IConst:
			if in.Ty != TI32 {
				return true // FP constants load from memory
			}
			return !spec.FitsMVI(int32(in.Imm))
		case IAddr:
			switch in.AK {
			case AKGlobal:
				off, ok := layout[in.Sym]
				if !ok {
					return true
				}
				goff := off + in.Off
				return !(goff >= 0 && spec.FitsALUImm(goff))
			case AKSlot:
				// Frame addresses are computed with one addi in almost
				// all frames; never worth a loop-long register.
				return false
			}
		}
		return false
	}

	// Innermost loops first (the order the IR generator records them);
	// instructions cascade outward through nested preheaders.
	for _, loop := range f.Loops {
		pre := byID[loop.Pre]
		if pre == nil || pre.Term() == nil {
			continue
		}
		// Member IDs in ascending order: hoisted instructions land in the
		// preheader in a run-independent order.
		var hoisted []Ins
		for _, id := range loop.Blocks {
			b := byID[id]
			if b == nil {
				continue
			}
			kept := b.Ins[:0]
			for i := range b.Ins {
				in := b.Ins[i]
				movable := (in.Op == IConst || (in.Op == IAddr && in.AK != AKReg)) &&
					defCount[in.Dst] == 1 && expensive(&in)
				if movable {
					hoisted = append(hoisted, in)
					continue
				}
				kept = append(kept, in)
			}
			b.Ins = kept
		}
		if len(hoisted) == 0 {
			continue
		}
		// Insert before the preheader's terminator.
		term := pre.Ins[len(pre.Ins)-1]
		pre.Ins = append(pre.Ins[:len(pre.Ins)-1], hoisted...)
		pre.Ins = append(pre.Ins, term)
	}
}

// LowerCallTargets makes function addresses explicit IR values on
// targets without a direct-call instruction (D16: every call goes
// through a register loaded from the literal pool). Exposing the address
// materialization to CSE and loop hoisting is what keeps D16's per-call
// pool loads out of inner loops — a repeated call site then costs one
// pool load per loop entry instead of one per iteration.
func LowerCallTargets(f *IRFunc, spec *isa.Spec) {
	if spec.HasJType {
		return // DLXe jl is a one-instruction direct call
	}
	f.rewrite(func(in Ins) bool {
		return in.Op == ICall && !in.Builtin && in.A == NoV
	}, func(out []Ins, in Ins) []Ins {
		t := f.NewVReg(TI32)
		in.A = t
		return append(out, Ins{Op: IAddr, Ty: TI32, Dst: t, AK: AKGlobal, Sym: in.Sym}, in)
	})
}

// arithCalls names the runtime routine LowerCalls calls for each op.
var arithCalls = map[IOp]string{IMul: "__mul", IDiv: "__div", IRem: "__mod"}

// LowerCalls rewrites multiply/divide/remainder that survived strength
// reduction into runtime-library calls (__mul, __div, __mod); the paper's
// machines have no integer multiply or divide instructions.
func LowerCalls(f *IRFunc) {
	f.rewrite(func(in Ins) bool {
		return in.Op == IMul || in.Op == IDiv || in.Op == IRem
	}, func(out []Ins, in Ins) []Ins {
		bArg := in.B
		if in.HasBImm {
			cv := f.NewVReg(TI32)
			out = append(out, Ins{Op: IConst, Ty: TI32, Dst: cv, Imm: in.BImm})
			bArg = cv
		}
		f.HasCall = true
		return append(out, Ins{Op: ICall, Ty: TI32, Dst: in.Dst, A: NoV,
			Sym: arithCalls[in.Op], Args: []VReg{in.A, bArg}})
	})
}
