package asm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/d16"
	"repro/internal/dlxe"
	"repro/internal/isa"
	"repro/internal/prog"
)

// link runs the layout/relaxation fixpoint and produces the final image.
func (a *Assembler) link() (*prog.Image, error) {
	// A final implicit pool catches literals with no explicit .pool after
	// them (small hand-written programs).
	a.items = append(a.items, &item{kind: itPool, sec: secText})

	var symbols map[string]uint32
	for iter := 0; ; iter++ {
		if iter > 64 {
			return nil, fmt.Errorf("%s: branch relaxation did not converge", a.file)
		}
		a.assignLiterals()
		var err error
		symbols, err = a.layout()
		if err != nil {
			return nil, err
		}
		changed, err := a.relax(symbols)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	return a.encode(symbols)
}

// assignLiterals attaches every literal-pool reference to the next .pool
// item, deduplicating identical expressions within one pool.
func (a *Assembler) assignLiterals() {
	var pending []*literal
	for _, it := range a.items {
		if it.sec != secText {
			continue
		}
		switch it.kind {
		case itInstr:
			if it.tgtKind != tgtLit {
				continue
			}
			var found *literal
			for _, l := range pending {
				if l.e == it.tgt {
					found = l
					break
				}
			}
			if found == nil {
				found = &literal{e: it.tgt}
				pending = append(pending, found)
			}
			it.lit = found
		case itPool:
			it.lits = pending
			pending = nil
		}
	}
}

func align(v, n uint32) uint32 { return (v + n - 1) &^ (n - 1) }

// layout assigns addresses and sizes to every item and builds the symbol
// table.
func (a *Assembler) layout() (map[string]uint32, error) {
	symbols := make(map[string]uint32)
	text := isa.TextBase
	data := isa.DataBase
	ib := a.spec.InstrBytes()

	// Pass 1: text and data. Pass 2: bss, which starts 8-aligned after
	// the initialized data.
	var bss uint32
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			bss = align(data, 8)
		}
		for _, it := range a.items {
			if (it.sec == secBSS) != (pass == 1) {
				continue
			}
			cursor := &text
			switch it.sec {
			case secData:
				cursor = &data
			case secBSS:
				cursor = &bss
				switch it.kind {
				case itLabel, itSpace, itAlign:
				default:
					return nil, fmt.Errorf("%s:%d: only labels, .space and .align are allowed in .bss", a.file, it.line)
				}
			}
			if err := a.layoutItem(it, cursor, symbols, ib); err != nil {
				return nil, err
			}
		}
	}
	a.bssBytes = 0
	if bss > 0 {
		a.bssBytes = bss - align(data, 8)
	}
	return symbols, nil
}

func (a *Assembler) layoutItem(it *item, cursor *uint32, symbols map[string]uint32, ib uint32) error {
	{
		switch it.kind {
		case itInstr:
			if it.sec != secText {
				return fmt.Errorf("%s:%d: instruction outside .text", a.file, it.line)
			}
			it.addr, it.size = *cursor, ib
		case itLabel:
			if _, dup := symbols[it.name]; dup {
				return fmt.Errorf("%s:%d: duplicate label %q", a.file, it.line, it.name)
			}
			it.addr, it.size = *cursor, 0
			symbols[it.name] = *cursor
		case itPool:
			start := *cursor
			aligned := align(start, 4)
			for i, l := range it.lits {
				l.addr = aligned + uint32(4*i)
			}
			it.addr = start
			it.size = aligned - start + uint32(4*len(it.lits))
			if len(it.lits) == 0 {
				it.size = 0
			}
		case itAlign:
			it.addr = *cursor
			it.size = align(*cursor, it.n) - *cursor
		case itWord:
			aligned := align(*cursor, 4)
			it.addr = *cursor
			it.size = aligned - *cursor + uint32(4*len(it.exprs))
		case itHalf:
			aligned := align(*cursor, 2)
			it.addr = *cursor
			it.size = aligned - *cursor + uint32(2*len(it.exprs))
		case itByte:
			it.addr, it.size = *cursor, uint32(len(it.exprs))
		case itAscii:
			it.addr, it.size = *cursor, uint32(len(it.data))
		case itSpace:
			it.addr, it.size = *cursor, it.n
		}
		*cursor += it.size
	}
	return nil
}

// branchInRange reports whether a short-form branch at addr can reach
// target under the current spec.
func (a *Assembler) branchInRange(addr, target uint32) bool {
	disp := int64(target) - int64(addr)
	if a.spec.Enc == isa.EncD16 {
		ioff := disp / int64(d16.Bytes)
		return ioff >= -1024 && ioff <= 1023
	}
	return disp >= -32768 && disp <= 32767
}

// relax rewrites out-of-range short branches into far sequences. It
// returns whether anything changed. Expansion is monotonic, so the layout
// fixpoint terminates.
func (a *Assembler) relax(symbols map[string]uint32) (bool, error) {
	changed := false
	var out []*item
	for idx := 0; idx < len(a.items); idx++ {
		it := a.items[idx]
		if it.kind != itInstr || it.tgtKind != tgtBranch || it.noRelax {
			out = append(out, it)
			continue
		}
		tv, err := it.tgt.eval(func(s string) (uint32, bool) { v, ok := symbols[s]; return v, ok })
		if err != nil {
			// Undefined symbol: reported with a line number at encode.
			out = append(out, it)
			continue
		}
		if a.branchInRange(it.addr, uint32(tv)) {
			out = append(out, it)
			continue
		}
		changed = true
		exp, skipLabel, err := a.expandFar(it)
		if err != nil {
			return false, err
		}
		out = append(out, exp...)
		if skipLabel != nil {
			// The skip label points AT the original delay-slot instruction,
			// which must execute on both the taken and fall-through paths
			// (on the far path it executes as the jump's delay slot).
			if idx+1 >= len(a.items) {
				return false, fmt.Errorf("%s:%d: far branch with no delay-slot instruction", a.file, it.line)
			}
			slot := a.items[idx+1]
			if slot.kind != itInstr || slot.in.Op.IsControl() {
				return false, fmt.Errorf("%s:%d: far branch delay slot is not a plain instruction", a.file, it.line)
			}
			out = append(out, skipLabel, slot)
			idx++
		}
	}
	a.items = out
	return changed, nil
}

// expandFar produces the far form of a short branch. The returned label
// item, if any, must be placed after the branch's delay-slot instruction.
//
// D16 (no long-displacement format; the address goes through the pool):
//
//	br L    ->  ldc r0, =L ; j r0               (slot follows, executes once)
//	bz  L   ->  bnz .F ; ldc r0, =L ; j r0 ; .F:<slot>
//	            (the slot executes once on either path: as the jump's delay
//	            slot when falling through to the far jump, or as the first
//	            instruction at .F when the inverted branch is taken)
//
// DLXe (26-bit J-type reaches everywhere):
//
//	br L    ->  j L
//	bz  L   ->  bnz .F ; nop ; j L ; .F:<slot>
func (a *Assembler) expandFar(it *item) ([]*item, *item, error) {
	mk := func(in isa.Instr) *item {
		return &item{kind: itInstr, sec: secText, line: it.line, in: in, noRelax: true}
	}
	farJump := func() []*item {
		if a.spec.HasJType {
			j := mk(isa.Instr{Op: isa.J, HasImm: true})
			j.tgt, j.tgtKind = it.tgt, tgtJump
			return []*item{j}
		}
		lit := mk(isa.Instr{Op: isa.LDC, Rd: isa.RegCC, Rs1: isa.NoReg})
		lit.tgt, lit.tgtKind = it.tgt, tgtLit
		return []*item{lit, mk(isa.Instr{Op: isa.J, Rs1: isa.RegCC})}
	}

	switch it.in.Op {
	case isa.BR:
		return farJump(), nil, nil
	case isa.BZ, isa.BNZ:
		a.farSeq++
		labName := fmt.Sprintf(".Lfar%d", a.farSeq)
		invOp := isa.BZ
		if it.in.Op == isa.BZ {
			invOp = isa.BNZ
		}
		inv := mk(isa.Instr{Op: invOp, Rs1: it.in.Rs1})
		inv.tgt, inv.tgtKind = expr{sym: labName}, tgtBranch
		items := []*item{inv}
		if a.spec.HasJType {
			// Keep the jump out of the inverted branch's delay slot.
			items = append(items, mk(isa.MakeNop()))
		}
		items = append(items, farJump()...)
		label := &item{kind: itLabel, sec: secText, line: it.line, name: labName}
		return items, label, nil
	}
	return nil, nil, fmt.Errorf("%s:%d: cannot relax %s", a.file, it.line, it.in.Op)
}

// encode produces the final image bytes.
func (a *Assembler) encode(symbols map[string]uint32) (*prog.Image, error) {
	lookup := func(s string) (uint32, bool) { v, ok := symbols[s]; return v, ok }
	img := &prog.Image{
		Enc:     a.spec.Enc,
		Cmp8:    a.spec.CmpImm8,
		Symbols: make(map[string]uint32, len(symbols)),
	}
	// Parsed symbol names are substrings of the assembly source; clone
	// each key so the image does not keep the whole source alive.
	for k, v := range symbols { //detlint:ignore rangemap map-to-map copy, order-free
		img.Symbols[strings.Clone(k)] = v
	}

	var textEnd, dataEnd uint32 = isa.TextBase, isa.DataBase
	for _, it := range a.items {
		end := it.addr + it.size
		if it.sec == secText && end > textEnd {
			textEnd = end
		}
		if it.sec == secData && end > dataEnd {
			dataEnd = end
		}
	}
	text := make([]byte, textEnd-isa.TextBase)
	data := make([]byte, dataEnd-isa.DataBase)

	seg := func(it *item) ([]byte, uint32) {
		if it.sec == secData {
			return data, it.addr - isa.DataBase
		}
		return text, it.addr - isa.TextBase
	}

	for _, it := range a.items {
		buf, off := seg(it)
		// Record every text-segment span that holds no instructions, so
		// the verifier can tell code from pools, padding and in-text data.
		if it.sec == secText && it.size > 0 && it.kind != itInstr {
			img.AddNonCode(it.addr, it.addr+it.size)
		}
		switch it.kind {
		case itInstr:
			in := it.in
			switch it.tgtKind {
			case tgtAbs, tgtBranch, tgtJump, tgtLit:
				var v int64
				var err error
				if it.tgtKind == tgtLit {
					v = int64(it.lit.addr)
				} else {
					v, err = it.tgt.eval(lookup)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
					}
				}
				if it.tgtKind == tgtAbs {
					in.Imm = int32(v)
				} else {
					in.Imm = int32(v) - int32(it.addr)
				}
			}
			if err := a.checkRegs(in); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
			}
			if a.spec.Enc == isa.EncD16 {
				w, err := d16.EncodeV(in, it.addr, d16.Variant{Cmp8: a.spec.CmpImm8})
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
				}
				binary.LittleEndian.PutUint16(buf[off:], w)
			} else {
				w, err := dlxe.Encode(in, it.addr)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
				}
				binary.LittleEndian.PutUint32(buf[off:], w)
			}
			img.TextInstrs++
		case itPool:
			for _, l := range it.lits {
				v, err := l.e.eval(lookup)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: pool literal: %v", a.file, it.line, err)
				}
				binary.LittleEndian.PutUint32(buf[l.addr-isa.TextBase:], uint32(v))
			}
			img.PoolBytes += 4 * len(it.lits)
		case itWord:
			p := align(it.addr, 4) - it.addr
			for i, e := range it.exprs {
				v, err := e.eval(lookup)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
				}
				binary.LittleEndian.PutUint32(buf[off+p+uint32(4*i):], uint32(v))
			}
		case itHalf:
			p := align(it.addr, 2) - it.addr
			for i, e := range it.exprs {
				v, err := e.eval(lookup)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
				}
				binary.LittleEndian.PutUint16(buf[off+p+uint32(2*i):], uint16(v))
			}
		case itByte:
			for i, e := range it.exprs {
				v, err := e.eval(lookup)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", a.file, it.line, err)
				}
				buf[off+uint32(i)] = byte(v)
			}
		case itAscii:
			copy(buf[off:], it.data)
		}
	}

	img.Text, img.Data = text, data
	img.BSS = a.bssBytes
	if e, ok := symbols["_start"]; ok {
		img.Entry = e
	} else {
		img.Entry = isa.TextBase
	}
	return img, nil
}

// checkRegs validates register numbers against the target's visible
// register files (this catches compiler bugs when a restricted DLXe config
// accidentally uses a high register).
func (a *Assembler) checkRegs(in isa.Instr) error {
	for _, r := range []isa.Reg{in.Rd, in.Rs1, in.Rs2} {
		if !r.Valid() {
			continue
		}
		if r.IsGPR() && r.Num() >= a.spec.NumGPR {
			return fmt.Errorf("register %s exceeds %s register file (%d GPRs)", r, a.spec, a.spec.NumGPR)
		}
		if r.IsFPR() && r.Num() >= a.spec.NumFPR {
			return fmt.Errorf("register %s exceeds %s register file (%d FPRs)", r, a.spec, a.spec.NumFPR)
		}
	}
	return nil
}
