package mcc

import (
	"math/bits"
	"sort"

	"repro/internal/isa"
)

// Linear-scan register allocation (Poletto/Sarkar) over the linearized
// IR, with live intervals extended by block-level liveness so values live
// around loop back edges stay allocated. Intervals that cross a call site
// are restricted to callee-saved registers; spilled values get frame
// slots and are accessed through the reserved scratch registers by the
// code generator.
//
// The visible register file size comes from the target spec — this is
// the mechanism behind the paper's 16- vs. 32-register experiments
// (Figures 6 and 7): the same allocator, different pool.

// Alloc is the allocation result.
type Alloc struct {
	// Reg maps each vreg to its physical register (isa.NoReg if spilled
	// or never live).
	Reg []isa.Reg
	// SpillSlot maps each vreg to its frame slot index, or -1.
	SpillSlot []int
	// UsedCalleeSaved lists callee-saved registers the function must
	// preserve (in register order).
	UsedCalleeSaved []isa.Reg
	// Spills is the number of spilled intervals (a density/traffic
	// diagnostic surfaced in experiment output).
	Spills int
}

type interval struct {
	v            VReg
	start, end   int
	fp           bool
	crossCall    bool
	crossBuiltin bool // builtin traps clobber only r3/f1 (argument moves)
	weight       int64
}

// Allocate runs register allocation for f under spec.
func Allocate(f *IRFunc, spec *isa.Spec) *Alloc {
	a := &Alloc{
		Reg:       make([]isa.Reg, f.NReg),
		SpillSlot: make([]int, f.NReg),
	}
	for i := range a.Reg {
		a.Reg[i] = isa.NoReg
		a.SpillSlot[i] = -1
	}

	intervals, callIdx, builtinIdx := buildIntervals(f)
	weights := spillWeights(f)
	hints := moveHints(f)
	for i := range intervals {
		iv := &intervals[i]
		iv.fp = f.RegTy[iv.v].IsFloat()
		iv.weight = weights[iv.v]
		for _, c := range callIdx {
			if iv.start < c && c < iv.end {
				iv.crossCall = true
				break
			}
		}
		for _, c := range builtinIdx {
			if iv.start < c && c < iv.end {
				iv.crossBuiltin = true
				break
			}
		}
	}
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].start != intervals[j].start {
			return intervals[i].start < intervals[j].start
		}
		return intervals[i].v < intervals[j].v
	})

	intPool := newPool(isa.AllocatableGPRs(spec))
	fpPool := newPool(isa.AllocatableFPRs(spec))
	var usedCallee regMask

	var active []*interval
	expire := func(now int) {
		out := active[:0]
		for _, iv := range active {
			if iv.end <= now {
				pool := intPool
				if iv.fp {
					pool = fpPool
				}
				pool.free(a.Reg[iv.v])
				continue
			}
			out = append(out, iv)
		}
		active = out
	}

	spillSlotFor := func(v VReg) int {
		size := 4
		if f.RegTy[v] != TI32 {
			size = 8
		}
		f.Slots = append(f.Slots, SlotInfo{Name: "spill", Size: size, Align: size})
		a.Spills++
		return len(f.Slots) - 1
	}

	for i := range intervals {
		iv := &intervals[i]
		expire(iv.start)
		pool := intPool
		if iv.fp {
			pool = fpPool
		}
		// Move coalescing: prefer the register of a copy-related vreg
		// (cuts the operand-shuffling moves two-address targets need).
		var r isa.Reg = isa.NoReg
		for _, h := range hints[iv.v] {
			hr := a.Reg[h]
			if hr == isa.NoReg || !pool.free_.has(hr) {
				continue
			}
			if iv.crossCall && !isa.CalleeSaved(hr) {
				continue
			}
			if iv.crossBuiltin && (hr == isa.RetReg || hr == isa.FRetReg) {
				continue
			}
			pool.free_ &^= regBit(hr)
			r = hr
			break
		}
		if r == isa.NoReg {
			r = pool.take(iv.crossCall, iv.crossBuiltin)
		}
		if r != isa.NoReg {
			a.Reg[iv.v] = r
			if isa.CalleeSaved(r) {
				usedCallee |= regBit(r)
			}
			active = append(active, iv)
			continue
		}
		// No register available: spill the cheapest conflicting interval
		// (lowest loop-depth-weighted use count, GCC-style), or this one.
		var victim *interval
		for _, act := range active {
			if act.fp != iv.fp {
				continue
			}
			// Only a victim whose register this interval could legally use.
			if iv.crossCall && !isa.CalleeSaved(a.Reg[act.v]) {
				continue
			}
			if iv.crossBuiltin && (a.Reg[act.v] == isa.RetReg || a.Reg[act.v] == isa.FRetReg) {
				continue
			}
			if victim == nil || act.weight < victim.weight ||
				(act.weight == victim.weight && act.end > victim.end) {
				victim = act
			}
		}
		if victim != nil && victim.weight < iv.weight {
			r := a.Reg[victim.v]
			a.Reg[victim.v] = isa.NoReg
			a.SpillSlot[victim.v] = spillSlotFor(victim.v)
			a.Reg[iv.v] = r
			if isa.CalleeSaved(r) {
				usedCallee |= regBit(r)
			}
			for j, act := range active {
				if act == victim {
					active[j] = iv
					break
				}
			}
		} else {
			a.SpillSlot[iv.v] = spillSlotFor(iv.v)
		}
	}

	for _, r := range append(isa.AllocatableGPRs(spec), isa.AllocatableFPRs(spec)...) {
		if usedCallee.has(r) {
			a.UsedCalleeSaved = append(a.UsedCalleeSaved, r)
		}
	}
	return a
}

// bitset is a set of VRegs, one bit each.
type bitset []uint64

func (s bitset) add(v VReg)      { s[v/64] |= 1 << (v % 64) }
func (s bitset) has(v VReg) bool { return s[v/64]&(1<<(v%64)) != 0 }

// regMask is a set of registers, one bit per isa.Reg (every valid
// register number is below 64).
type regMask uint64

func regBit(r isa.Reg) regMask       { return 1 << r }
func (m regMask) has(r isa.Reg) bool { return m&regBit(r) != 0 }

// pool hands out registers, preferring caller-saved unless the interval
// crosses a call.
type pool struct {
	order []isa.Reg
	free_ regMask
}

func newPool(regs []isa.Reg) *pool {
	p := &pool{order: regs}
	for _, r := range regs {
		p.free_ |= regBit(r)
	}
	return p
}

func (p *pool) take(needCalleeSaved, avoidRetReg bool) isa.Reg {
	for _, r := range p.order {
		if !p.free_.has(r) {
			continue
		}
		if needCalleeSaved && !isa.CalleeSaved(r) {
			continue
		}
		if avoidRetReg && (r == isa.RetReg || r == isa.FRetReg) {
			continue
		}
		p.free_ &^= regBit(r)
		return r
	}
	return isa.NoReg
}

func (p *pool) free(r isa.Reg) {
	if r != isa.NoReg {
		p.free_ |= regBit(r)
	}
}

// moveHints collects copy-relations for coalescing: for `mov d, s` and
// for two-address-relevant `op d, a, b` patterns, d prefers a's (or s's)
// register. Hints are bidirectional so whichever interval is allocated
// first seeds the other.
func moveHints(f *IRFunc) [][]VReg {
	h := make([][]VReg, f.NReg)
	add := func(a, b VReg) {
		if a == NoV || b == NoV || a == b {
			return
		}
		h[a] = append(h[a], b)
		h[b] = append(h[b], a)
	}
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Op {
			case IMov:
				add(in.Dst, in.A)
			case IAdd, ISub, IAnd, IOr, IXor, IShl, IShr, ISra,
				IFAdd, IFSub, IFMul, IFDiv:
				add(in.Dst, in.A)
			}
		}
	}
	return h
}

// spillWeights estimates each vreg's dynamic access frequency: every use
// or definition counts, multiplied by 8 per enclosing source loop — the
// classic loop-depth spill metric. Spilling a loop induction variable is
// catastrophically worse than spilling a once-used address.
func spillWeights(f *IRFunc) []int64 {
	depth := make([]int, f.NBlock)
	for _, l := range f.Loops {
		for _, id := range l.Blocks {
			depth[id]++
		}
	}
	w := make([]int64, f.NReg)
	for _, b := range f.Blocks {
		mult := int64(1)
		for d := 0; d < depth[b.ID] && d < 5; d++ {
			mult *= 8
		}
		for i := range b.Ins {
			in := &b.Ins[i]
			var buf [4]VReg
			for _, u := range in.uses(buf[:0]) {
				w[u] += mult
			}
			if d := in.def(); d != NoV {
				w[d] += mult
			}
		}
	}
	return w
}

// buildIntervals computes per-vreg live intervals over the linearized
// function and the indices of clobbering calls (full calls and builtin
// traps, separately).
func buildIntervals(f *IRFunc) ([]interval, []int, []int) {
	// Block-level liveness (backward dataflow) over bit rows of VRegs:
	// use, def, live-in and live-out per block position.
	nb, words := len(f.Blocks), (f.NReg+63)/64
	rows := make(bitset, 4*nb*words)
	row := func(set, bi int) bitset {
		o := (set*nb + bi) * words
		return rows[o : o+words : o+words]
	}
	const useSet, defSet, inSet, outSet = 0, 1, 2, 3
	pos := make([]int, f.NBlock) // block ID -> position
	for bi, b := range f.Blocks {
		pos[b.ID] = bi
		u, d := row(useSet, bi), row(defSet, bi)
		for i := range b.Ins {
			var buf [4]VReg
			for _, src := range b.Ins[i].uses(buf[:0]) {
				if !d.has(src) {
					u.add(src)
				}
			}
			if dst := b.Ins[i].def(); dst != NoV {
				d.add(dst)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := row(outSet, bi)
			for _, s := range f.Blocks[bi].Succs() {
				for k, w := range row(inSet, pos[s]) {
					out[k] |= w
				}
			}
			in, u, d := row(inSet, bi), row(useSet, bi), row(defSet, bi)
			for k := range in {
				if w := in[k] | u[k] | out[k]&^d[k]; w != in[k] {
					in[k], changed = w, true
				}
			}
		}
	}

	// Intervals.
	starts := make([]int, f.NReg)
	ends := make([]int, f.NReg)
	for v := range starts {
		starts[v] = -1
	}
	touch := func(v VReg, at int) {
		if starts[v] < 0 {
			starts[v], ends[v] = at, at
			return
		}
		if at < starts[v] {
			starts[v] = at
		}
		if at > ends[v] {
			ends[v] = at
		}
	}

	// Parameters are live from function entry (the entry move sequence).
	for _, p := range f.Params {
		touch(p, 0)
	}

	// Numbering starts at 1: index 0 is the function entry, where
	// parameters become live, so a call that is the very first
	// instruction still counts as crossed by them.
	touchRow := func(r bitset, at int) {
		for k, w := range r {
			for ; w != 0; w &= w - 1 {
				touch(VReg(k*64+bits.TrailingZeros64(w)), at)
			}
		}
	}
	var calls, builtins []int
	idx := 1
	for bi, b := range f.Blocks {
		touchRow(row(inSet, bi), idx)
		touchRow(row(outSet, bi), idx+len(b.Ins))
		for i := range b.Ins {
			in := &b.Ins[i]
			var buf [4]VReg
			for _, u := range in.uses(buf[:0]) {
				touch(u, idx)
			}
			if d := in.def(); d != NoV {
				touch(d, idx)
			}
			if in.Op == ICall {
				if in.Builtin {
					builtins = append(builtins, idx)
				} else {
					calls = append(calls, idx)
				}
			}
			idx++
		}
	}

	var out []interval
	for v := 0; v < f.NReg; v++ {
		if starts[v] >= 0 {
			out = append(out, interval{v: VReg(v), start: starts[v], end: ends[v]})
		}
	}
	return out, calls, builtins
}
