package verify

import (
	"sort"

	"repro/internal/isa"
)

// This file exports the control-flow graph the verifier reconstructs as
// a by-product of its reachability walk; a clean Report carries it
// (Report.CFG). The static analyzer (internal/static) consumes it:
// every block's instructions provably decode and every recorded edge
// was validated by checkTarget, so downstream passes never re-prove
// decoding or target sanity.
//
// Delay slots are folded the way the machine executes them: a control
// transfer and its slot form one two-instruction unit at the end of a
// block, in issue order (transfer first, slot second). A branch into a
// delay slot — legal, if unusual — yields an overlapping one-instruction
// block starting at the slot, which is exactly the execution a machine
// entering there performs.

// Block is one basic block of reconstructed control flow. PCs and Instrs
// are parallel and list the executed instructions in issue order.
type Block struct {
	Start  uint32      // address of the first instruction
	PCs    []uint32    // instruction addresses, ascending and contiguous
	Instrs []isa.Instr // decoded instructions, parallel to PCs
	Succs  []uint32    // in-function successor block starts, ascending

	// CallTarget is the callee's entry address when the block ends in a
	// resolved jl; HasCall marks any jl terminator (CallUnresolved when
	// the callee register could not be resolved by const propagation).
	CallTarget     uint32
	HasCall        bool
	CallUnresolved bool

	Returns    bool // ends in `j r1` (return through the link register)
	Halts      bool // ends in trap 0
	Unresolved bool // ends in an indirect jump const-prop could not resolve
}

// FuncCFG is the control-flow graph of one function.
type FuncCFG struct {
	Name   string
	Entry  uint32
	End    uint32         // first address past the function
	Blocks []*Block       // address order
	Index  map[uint32]int // block start -> Blocks index
}

// BlockAt returns the block starting at addr, or nil.
func (f *FuncCFG) BlockAt(addr uint32) *Block {
	if i, ok := f.Index[addr]; ok {
		return f.Blocks[i]
	}
	return nil
}

// CFG is the whole-image control-flow graph.
type CFG struct {
	Config  string
	Enc     string
	Entry   uint32     // image entry address
	Funcs   []*FuncCFG // address order
	ByEntry map[uint32]*FuncCFG
}

// xferRec is the recorded outcome of one control-transfer unit. The walk
// revisits program points until the dataflow fixpoint stabilizes, so
// every note is idempotent.
type xferRec struct {
	targets        []uint32
	fall           bool
	callTarget     uint32
	hasCall        bool
	callUnresolved bool
	returns        bool
	unresolved     bool
}

func (v *verifier) xrec(pc uint32) *xferRec {
	x := v.control[v.idx(pc)]
	if x == nil {
		x = &xferRec{}
		v.control[v.idx(pc)] = x
	}
	return x
}

func (v *verifier) noteHalt(pc uint32) { v.halts[v.idx(pc)] = true }

func (v *verifier) noteTarget(pc, t uint32) {
	x := v.xrec(pc)
	for _, have := range x.targets {
		if have == t {
			return
		}
	}
	x.targets = append(x.targets, t)
}

func (v *verifier) noteFall(pc uint32) { v.xrec(pc).fall = true }

func (v *verifier) noteCall(pc, t uint32, resolved bool) {
	x := v.xrec(pc)
	x.hasCall = true
	if resolved {
		x.callTarget = t
	} else {
		x.callUnresolved = true
	}
}

func (v *verifier) noteReturn(pc uint32) { v.xrec(pc).returns = true }

func (v *verifier) noteUnresolved(pc uint32) { v.xrec(pc).unresolved = true }

// buildCFG assembles basic blocks from the recorded transfers. Only
// called on clean images, so every reachable slot decodes and every
// recorded edge passed checkTarget.
func (v *verifier) buildCFG() *CFG {
	g := &CFG{
		Config:  v.rep.Config,
		Enc:     v.rep.Enc,
		Entry:   v.img.Entry,
		ByEntry: map[uint32]*FuncCFG{},
	}
	for _, f := range v.funcs {
		fc := v.buildFuncCFG(f)
		g.Funcs = append(g.Funcs, fc)
		g.ByEntry[fc.Entry] = fc
	}
	return g
}

func (v *verifier) buildFuncCFG(f funcSpan) *FuncCFG {
	// Leaders: the entry, every branch/jump target, and every
	// fall-through resumption point after a control unit, by slot from
	// the function's start. The walk recorded only targets and falls it
	// validated, so all lie inside the function.
	lo, hi := v.slots(f)
	leaders := make([]bool, hi-lo)
	leaders[0] = true
	for pc := f.start; pc < f.end; pc += v.ib {
		if !v.isCode(pc) || !v.reached[v.idx(pc)] || v.control[v.idx(pc)] == nil {
			continue
		}
		x := v.control[v.idx(pc)]
		for _, t := range x.targets {
			leaders[v.idx(t)-lo] = true
		}
		if x.fall {
			leaders[v.idx(pc)+2-lo] = true
		}
	}

	fc := &FuncCFG{Name: f.name, Entry: f.start, End: f.end, Index: map[uint32]int{}}
	for i, l := range leaders {
		pc := f.start + uint32(i)*v.ib
		if !l || !v.isCode(pc) || !v.reached[v.idx(pc)] {
			continue
		}
		b := v.scanBlock(f, pc, leaders[i:])
		fc.Index[b.Start] = len(fc.Blocks)
		fc.Blocks = append(fc.Blocks, b)
	}
	return fc
}

// scanBlock walks straight-line code from leader l until a terminator or
// the next leader; leaders[k] marks the slot k instructions past l.
// Trap-0 shadows (the never-executed slot after a halt) are excluded from
// the instruction list.
func (v *verifier) scanBlock(f funcSpan, l uint32, leaders []bool) *Block {
	b := &Block{Start: l}
	addSucc := func(t uint32) {
		for _, have := range b.Succs {
			if have == t {
				return
			}
		}
		b.Succs = append(b.Succs, t)
	}
	pc := l
	for pc < f.end && v.isCode(pc) {
		in := v.ins[v.idx(pc)]
		if x := v.control[v.idx(pc)]; x != nil {
			// Control unit: transfer then its delay slot, in issue order.
			slot := pc + v.ib
			b.PCs = append(b.PCs, pc, slot)
			b.Instrs = append(b.Instrs, in, v.ins[v.idx(slot)])
			for _, t := range x.targets {
				addSucc(t)
			}
			if x.fall {
				addSucc(pc + 2*v.ib)
			}
			b.HasCall = x.hasCall
			b.CallTarget = x.callTarget
			b.CallUnresolved = x.callUnresolved
			b.Returns = x.returns
			b.Unresolved = x.unresolved
			break
		}
		b.PCs = append(b.PCs, pc)
		b.Instrs = append(b.Instrs, in)
		if v.halts[v.idx(pc)] {
			b.Halts = true
			break
		}
		next := pc + v.ib
		if next < f.end && leaders[(next-l)/v.ib] {
			addSucc(next)
			break
		}
		pc = next
	}
	sort.Slice(b.Succs, func(i, j int) bool { return b.Succs[i] < b.Succs[j] })
	return b
}
