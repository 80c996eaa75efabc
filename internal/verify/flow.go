package verify

import (
	"strings"

	"repro/internal/isa"
)

// state is the per-program-point abstract machine state for one function:
// which registers are must-defined, which callee-saved registers hold
// values that differ from their entry values, a small constant environment
// (feeding indirect-jump resolution and stack-pointer arithmetic), the
// stack pointer's offset from its entry value, and the set of frame slots
// holding pristine callee-saved copies.
type state struct {
	defined   uint64 // must-defined registers (bit = isa.Reg value)
	clobbered uint64 // callee-saved + link registers written, not yet restored
	constMask uint64 // registers with a known constant value
	consts    [64]int32
	fpsr      bool // FP status register defined by a reaching fcmp
	spKnown   bool // sp offset from entry is a known constant
	spDelta   int32
	slots     []slot // save slots; clones share it, so it is replaced, never written in place
}

// slot is one frame slot holding a pristine callee-saved copy: the
// register saved at an entry-relative sp offset.
type slot struct {
	off int32
	reg isa.Reg
}

func bit(r isa.Reg) uint64 { return 1 << uint(r) }

func (s *state) has(r isa.Reg) bool { return s.defined&bit(r) != 0 }
func (s *state) def(r isa.Reg)      { s.defined |= bit(r) }

func (s *state) isClobbered(r isa.Reg) bool { return s.clobbered&bit(r) != 0 }
func (s *state) clobber(r isa.Reg)          { s.clobbered |= bit(r) }
func (s *state) unclobber(r isa.Reg)        { s.clobbered &^= bit(r) }

func (s *state) constOf(r isa.Reg) (int32, bool) {
	if !r.Valid() || s.constMask&bit(r) == 0 {
		return 0, false
	}
	return s.consts[r], true
}

func (s *state) setConst(r isa.Reg, v int32) {
	s.constMask |= bit(r)
	s.consts[r] = v
}

func (s *state) killConst(r isa.Reg) { s.constMask &^= bit(r) }

func (s *state) slotReg(off int32) isa.Reg {
	for _, sl := range s.slots {
		if sl.off == off {
			return sl.reg
		}
	}
	return isa.NoReg
}

// filter returns the slots keep accepts. It never writes s.slots, which
// clones share: a result that drops a slot is a new slice, and one that
// keeps them all is capped so an append cannot write into it.
func (s *state) filter(keep func(slot) bool) []slot {
	for i, sl := range s.slots {
		if !keep(sl) {
			out := append(make([]slot, 0, len(s.slots)), s.slots[:i]...)
			for _, sl := range s.slots[i+1:] {
				if keep(sl) {
					out = append(out, sl)
				}
			}
			return out
		}
	}
	return s.slots[:len(s.slots):len(s.slots)]
}

func (s *state) setSlot(off int32, r isa.Reg) {
	s.slots = append(s.filter(func(sl slot) bool { return sl.off != off }), slot{off, r})
}

func (s *state) delSlot(off int32) { s.slots = s.filter(func(sl slot) bool { return sl.off != off }) }

// clone copies the state. The copy shares the save slots, which every
// update replaces rather than edits.
func (s *state) clone() *state {
	c := *s
	return &c
}

// merge joins o into s (s is the state already recorded at a program
// point, o a newly arriving one). It reports whether s changed, and
// whether the two paths disagree on a known stack depth.
func (s *state) merge(o *state) (changed, spConflict bool) {
	if d := s.defined & o.defined; d != s.defined {
		s.defined, changed = d, true
	}
	if c := s.clobbered | o.clobbered; c != s.clobbered {
		s.clobbered, changed = c, true
	}
	if s.fpsr && !o.fpsr {
		s.fpsr, changed = false, true
	}
	if s.spKnown {
		if !o.spKnown {
			s.spKnown, changed = false, true
		} else if o.spDelta != s.spDelta {
			s.spKnown, changed, spConflict = false, true, true
		}
	}
	m := s.constMask & o.constMask
	for r := isa.Reg(0); r < 64; r++ {
		if m&bit(r) != 0 && s.consts[r] != o.consts[r] {
			m &^= bit(r)
		}
	}
	if m != s.constMask {
		s.constMask, changed = m, true
	}
	if kept := s.filter(func(sl slot) bool { return o.slotReg(sl.off) == sl.reg }); len(kept) != len(s.slots) {
		s.slots, changed = kept, true
	}
	return changed, spConflict
}

// entryState is the abstract state at a function entry under the ABI:
// link, sp, gp, argument and callee-saved registers hold values; scratch
// and caller-saved temporaries hold garbage. On D16 the condition
// register r0 is garbage too; on DLXe it is the constant zero.
func (v *verifier) entryState() *state {
	st := &state{spKnown: true}
	for i := 0; i < v.spec.NumGPR && i < 32; i++ {
		r := isa.R(i)
		switch {
		case i == 0:
			// Always defined: hardwired zero on DLXe; on D16 the decoder
			// reports r0 as an operand of every REG-format instruction
			// (absent fields decode as register 0), so its definedness
			// cannot be tracked without drowning in false positives.
			st.def(r)
			if v.spec.R0Zero {
				st.setConst(r, 0)
			}
		case r == isa.RegLink || r == isa.RegSP || r == isa.RegGP:
			st.def(r)
		case i >= 3 && i <= 6: // argument registers
			st.def(r)
		case isa.CalleeSaved(r):
			st.def(r)
		}
	}
	for i := 0; i < v.spec.NumFPR && i < 32; i++ {
		f := isa.F(i)
		if (i >= 1 && i <= 4) || isa.CalleeSaved(f) {
			st.def(f)
		}
	}
	return st
}

// callClobberMask is the set of registers whose contents (and constants)
// die across a call: caller-saved argument registers, scratch
// temporaries, the caller-saved upper banks, the FP temporaries — and on
// D16 the condition register, which any callee's compares overwrite.
func (v *verifier) callClobberMask() uint64 {
	var m uint64
	for i := 0; i < v.spec.NumGPR && i < 32; i++ {
		r := isa.R(i)
		if i >= 3 && i <= 6 || i == 14 || i == 15 || i >= 24 {
			m |= bit(r)
		}
	}
	for i := 0; i < v.spec.NumFPR && i < 32; i++ {
		if i <= 7 || i >= 24 {
			m |= bit(isa.F(i))
		}
	}
	return m
}

// analyze runs the combined reachability + dataflow fixpoint over one
// function and then reports any instructions the walk never reached.
func (v *verifier) analyze(f funcSpan) {
	if !v.isCode(f.start) {
		v.violate(f.start, CheckCFG, "function %s starts in non-code (pool, padding or data)", f.name)
		return
	}

	states := map[uint32]*state{}
	var work []uint32
	push := func(pc uint32, st *state) {
		if have, ok := states[pc]; ok {
			changed, conflict := have.merge(st)
			if conflict {
				v.violate(pc, CheckStack, "stack depths differ across joining paths")
			}
			if !changed {
				return
			}
		} else {
			states[pc] = st.clone()
		}
		work = append(work, pc)
	}

	push(f.start, v.entryState())
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		v.step(f, pc, states[pc].clone(), push)
	}

	for pc := f.start; pc < f.end; pc += v.ib {
		if !v.isCode(pc) || v.rep.reachable[pc] {
			continue
		}
		run := 1
		end := pc + v.ib
		for end < f.end && v.isCode(end) && !v.rep.reachable[end] {
			run++
			end += v.ib
		}
		v.violate(pc, CheckCFG, "unreachable: %d instruction(s) no path from %s reaches", run, f.name)
		pc = end - v.ib
	}
}

// step interprets the unit at pc (one instruction, or a control transfer
// folded with its delay slot) over st and pushes successor states.
func (v *verifier) step(f funcSpan, pc uint32, st *state, push func(uint32, *state)) {
	v.rep.reachable[pc] = true
	in := v.ins[v.idx(pc)]
	if err := v.derr[v.idx(pc)]; err != nil {
		v.violate(pc, CheckEncoding, "undecodable instruction word: %v", err)
		return
	}
	v.checkInstr(pc, in)

	if !in.Op.IsControl() {
		v.effect(st, pc, in)
		if in.Op == isa.TRAP && in.Imm == 0 {
			v.noteHalt(pc)
			// Halt. The delay-slot-sized shadow after it (a nop the
			// runtime leaves for the pipeline to drain into) is
			// considered covered but never interpreted.
			if v.isCode(pc + v.ib) {
				v.rep.reachable[pc+v.ib] = true
			}
			return
		}
		v.flow(f, pc, pc+v.ib, st, push)
		return
	}

	// Control transfer: validate and fold the architectural delay slot.
	slotPC := pc + v.ib
	if !v.isCode(slotPC) {
		v.violate(pc, CheckCFG, "control transfer has no delay slot (end of code)")
		return
	}
	if err := v.derr[v.idx(slotPC)]; err != nil {
		v.violate(slotPC, CheckEncoding, "undecodable instruction word in delay slot: %v", err)
		return
	}
	slot := v.ins[v.idx(slotPC)]
	v.rep.reachable[slotPC] = true
	v.checkInstr(slotPC, slot)
	if slot.Op.IsControl() {
		v.violate(slotPC, CheckCFG, "control transfer in a delay slot")
		return
	}

	// The transfer instruction reads its operands (and jl writes the
	// link register) before the delay slot executes.
	v.useCheck(st, pc, in)
	if in.Op == isa.JL {
		st.def(isa.RegLink)
		st.clobber(isa.RegLink)
		st.killConst(isa.RegLink)
	}

	// Resolve the target before the slot runs: an indirect jump's
	// register may legally be overwritten by its own delay slot.
	target, haveTarget := uint32(0), false
	switch {
	case in.Op.IsBranch():
		target, haveTarget = pc+uint32(in.Imm), true
	case in.HasImm: // DLXe J-type: PC-relative displacement
		target, haveTarget = pc+uint32(in.Imm), true
	default:
		if c, ok := st.constOf(in.Rs1); ok {
			target, haveTarget = uint32(c), true
		}
	}

	v.effect(st, slotPC, slot)
	fall := pc + 2*v.ib

	switch in.Op {
	case isa.BR:
		if v.checkTarget(f, pc, target, false) {
			v.noteTarget(pc, target)
			push(target, st)
		}
	case isa.BZ, isa.BNZ:
		if v.checkTarget(f, pc, target, false) {
			v.noteTarget(pc, target)
			push(target, st)
		}
		v.noteFall(pc)
		v.flow(f, pc, fall, st, push)
	case isa.JL:
		if haveTarget {
			if !v.inText(target) || v.starts[target] == "" {
				v.violate(pc, CheckCFG, "call target %#x is not a function entry", target)
			}
		}
		v.noteCall(pc, target, haveTarget)
		v.noteFall(pc)
		// Call effect: caller-saved state dies, return values appear.
		m := v.callClobberMask()
		st.defined &^= m
		st.constMask &^= m
		st.killConst(isa.RegLink)
		st.fpsr = false
		st.def(isa.RegLink)
		st.def(isa.RetReg)
		if v.spec.NumFPR > 0 {
			st.def(isa.FRetReg)
		}
		v.flow(f, pc, fall, st, push)
	case isa.J:
		if !in.HasImm && in.Rs1 == isa.RegLink {
			v.noteReturn(pc)
			v.checkReturn(st, pc)
			return
		}
		if haveTarget {
			if v.checkTarget(f, pc, target, false) {
				v.noteTarget(pc, target)
				push(target, st)
			}
		} else {
			// An unresolvable indirect jump ends the walk conservatively.
			v.noteUnresolved(pc)
		}
	case isa.JZ, isa.JNZ:
		if haveTarget {
			if v.checkTarget(f, pc, target, false) {
				v.noteTarget(pc, target)
				push(target, st)
			}
		} else {
			v.noteUnresolved(pc)
		}
		v.noteFall(pc)
		v.flow(f, pc, fall, st, push)
	}
}

// flow pushes the linear successor, diagnosing falls off the end of the
// function or into non-code.
func (v *verifier) flow(f funcSpan, pc, succ uint32, st *state, push func(uint32, *state)) {
	if succ >= f.end {
		v.violate(pc, CheckCFG, "execution falls past the end of %s", f.name)
		return
	}
	if !v.isCode(succ) {
		v.violate(pc, CheckCFG, "execution falls into a literal pool or padding")
		return
	}
	push(succ, st)
}

// checkTarget validates one branch/jump target; call targets (isCall)
// may leave the function, branch targets must not.
func (v *verifier) checkTarget(f funcSpan, pc, t uint32, isCall bool) bool {
	if !v.inText(t) {
		v.violate(pc, CheckCFG, "target %#x is outside the text segment", t)
		return false
	}
	if (t-isa.TextBase)%v.ib != 0 {
		v.violate(pc, CheckCFG, "target %#x is not instruction-aligned", t)
		return false
	}
	if v.img.InNonCode(t) {
		v.violate(pc, CheckCFG, "target %#x lands in a literal pool or padding", t)
		return false
	}
	if v.derr[v.idx(t)] != nil {
		v.violate(pc, CheckCFG, "target %#x does not decode", t)
		return false
	}
	if !isCall && (t < f.start || t >= f.end) {
		v.violate(pc, CheckCFG, "target %#x leaves function %s", t, f.name)
		return false
	}
	return true
}

// checkReturn runs the stack-discipline checks at a `j r1` after its
// delay slot (epilogue sp restores ride in the slot).
func (v *verifier) checkReturn(st *state, pc uint32) {
	if st.isClobbered(isa.RegLink) {
		v.violate(pc, CheckStack, "return through clobbered link register r1")
	}
	if !st.spKnown {
		v.violate(pc, CheckStack, "stack pointer not provably balanced at return")
	} else if st.spDelta != 0 {
		v.violate(pc, CheckStack, "stack pointer off by %d bytes at return", st.spDelta)
	}
	if rest := st.clobbered &^ bit(isa.RegLink); rest != 0 {
		v.violate(pc, CheckStack, "callee-saved registers not restored at return: %s", regList(rest))
	}
}

// useCheck flags reads of registers with no reaching definition.
func (v *verifier) useCheck(st *state, pc uint32, in isa.Instr) {
	for _, r := range in.Uses(nil) {
		if !st.has(r) {
			v.violate(pc, CheckDefUse, "%s read but not written on some path reaching here", r)
		}
	}
	if in.Op == isa.RDSR && !st.fpsr {
		v.violate(pc, CheckDefUse, "rdsr reads FP status with no reaching FP compare")
	}
}

// effect interprets one non-control instruction over st: use checks,
// save-slot tracking, definitions, constants and sp arithmetic.
func (v *verifier) effect(st *state, pc uint32, in isa.Instr) {
	v.useCheck(st, pc, in)
	if in.Op.IsFCmp() {
		st.fpsr = true
	}

	// Frame stores: a pristine callee-saved (or link) register stored at
	// a known sp offset creates a save slot; anything else stored over a
	// slot destroys it.
	if in.Op.IsStore() && in.Rs1 == isa.RegSP && st.spKnown {
		off := st.spDelta + in.Imm
		if in.Op == isa.ST && trackSaved(in.Rd) && !st.isClobbered(in.Rd) {
			st.setSlot(off, in.Rd)
		} else {
			st.delSlot(off &^ 3)
		}
	}

	d := in.Def()
	if !d.Valid() {
		return
	}

	// Compute the defined value's constant (if any) before killing the
	// destination: d may alias a source.
	var nc int32
	var ncOK bool
	switch in.Op {
	case isa.MVI:
		nc, ncOK = in.Imm, true
	case isa.MVHI:
		nc, ncOK = in.Imm<<16, true
	case isa.LDC:
		nc, ncOK = v.literal(pc, in.Imm)
	case isa.MV:
		nc, ncOK = st.constOf(in.Rs1)
	case isa.ADD, isa.SUB:
		a, ok1 := st.constOf(in.Rs1)
		b, ok2 := st.constOf(in.Rs2)
		if ok1 && ok2 {
			if in.Op == isa.ADD {
				nc, ncOK = a+b, true
			} else {
				nc, ncOK = a-b, true
			}
		}
	case isa.ADDI:
		if a, ok := st.constOf(in.Rs1); ok {
			nc, ncOK = a+in.Imm, true
		}
	case isa.SUBI:
		if a, ok := st.constOf(in.Rs1); ok {
			nc, ncOK = a-in.Imm, true
		}
	case isa.SHLI:
		if a, ok := st.constOf(in.Rs1); ok {
			nc, ncOK = a<<uint(in.Imm&31), true
		}
	}

	switch d {
	case isa.RegSP:
		var delta int32
		ok := false
		switch in.Op {
		case isa.ADDI:
			if in.Rs1 == isa.RegSP {
				delta, ok = in.Imm, true
			}
		case isa.SUBI:
			if in.Rs1 == isa.RegSP {
				delta, ok = -in.Imm, true
			}
		case isa.ADD, isa.SUB:
			if in.Rs1 == isa.RegSP {
				if c, k := st.constOf(in.Rs2); k {
					if in.Op == isa.SUB {
						c = -c
					}
					delta, ok = c, true
				}
			} else if in.Op == isa.ADD && in.Rs2 == isa.RegSP {
				if c, k := st.constOf(in.Rs1); k {
					delta, ok = c, true
				}
			}
		}
		if ok {
			if st.spKnown {
				st.spDelta += delta
			}
		} else {
			if st.spKnown {
				v.violate(pc, CheckStack, "stack pointer updated by an unanalyzable instruction")
			}
			st.spKnown = false
			st.slots = nil
		}
	case isa.RegGP:
		v.violate(pc, CheckStack, "global pointer r13 overwritten")
	}

	// Restores: loading a save slot back into the register it holds
	// re-establishes the entry value.
	restored := false
	if in.Op == isa.LD && in.Rs1 == isa.RegSP && st.spKnown && st.slotReg(st.spDelta+in.Imm) == d {
		restored = true
	}
	if trackSaved(d) {
		if restored {
			st.unclobber(d)
		} else {
			st.clobber(d)
		}
	}

	if d == isa.RegCC && v.spec.R0Zero {
		// Writes to a hardwired-zero r0 are discarded.
		st.def(d)
		st.setConst(d, 0)
		return
	}
	st.def(d)
	if ncOK {
		st.setConst(d, nc)
	} else {
		st.killConst(d)
	}
}

// trackSaved reports whether r's save/restore discipline is tracked:
// callee-saved GPRs plus the link register. FP callee-saved registers
// are excluded — they cross to the stack 32 bits at a time through GPR
// transfers (mffl/mffh, then st), a dance this word-level analysis
// cannot follow without false positives.
func trackSaved(r isa.Reg) bool {
	return r == isa.RegLink || (r.IsGPR() && isa.CalleeSaved(r))
}

// regList renders a register bitmask as "r7, r9, f8".
func regList(mask uint64) string {
	var parts []string
	for r := isa.Reg(0); r < 64; r++ {
		if mask&bit(r) != 0 {
			parts = append(parts, r.String())
		}
	}
	return strings.Join(parts, ", ")
}
