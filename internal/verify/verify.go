package verify

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/d16"
	"repro/internal/dlxe"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

// maxViolations caps the report so a garbage image (fuzzing) cannot
// allocate without bound.
const maxViolations = 200

// Image verifies a linked image against the target spec and returns the
// full report. One reachability walk both checks the image and records
// its control transfers, so a clean report also carries the
// reconstructed control-flow graph (Report.CFG).
func Image(img *prog.Image, spec *isa.Spec) *Report {
	span := telemetry.StartSpan("verify", telemetry.String("config", spec.Name))
	defer span.End()
	v := &verifier{
		img:  img,
		spec: spec,
		ib:   img.Enc.InstrBytes(),
		rep:  &Report{Config: spec.Name, Enc: img.Enc.String()},
		seen: map[string]bool{},
	}
	v.run()
	if v.rep.OK() {
		v.rep.cfg = v.buildCFG()
	}
	reg := telemetry.Default()
	reg.Counter("verify.images").Inc()
	reg.Counter("verify.instrs").Add(int64(v.rep.Instrs))
	reg.Counter("verify.violations").Add(int64(len(v.rep.Violations)))
	if !v.rep.OK() {
		reg.Counter("verify.rejected").Inc()
	}
	return v.rep
}

// funcSpan is one function's text range [start, end).
type funcSpan struct {
	name       string
	start, end uint32
}

type verifier struct {
	img  *prog.Image
	spec *isa.Spec
	ib   uint32
	rep  *Report

	ins    []isa.Instr // pre-decoded text, indexed by instruction slot
	derr   []error     // decode errors, same indexing
	funcs  []funcSpan
	starts map[uint32]string // function entry addresses -> name
	seen   map[string]bool   // violation dedup (pc|check|msg)

	// Per instruction slot (idx): whether the walk reached it, the
	// control transfer it resolved there and whether it halts there
	// (buildCFG's input).
	reached []bool
	control []*xferRec
	halts   []bool

	// analyze's tables, reused across functions: the state recorded at
	// each slot of the function (states[idx-lo], valid where has is set),
	// the worklist, and the state step interprets.
	lo     int
	states []state
	has    []bool
	work   []uint32
	cur    state
}

func (v *verifier) textEnd() uint32 { return isa.TextBase + uint32(len(v.img.Text)) }

// inText reports whether pc addresses a whole instruction slot in text.
func (v *verifier) inText(pc uint32) bool {
	return pc >= isa.TextBase && pc+v.ib <= v.textEnd()
}

func (v *verifier) idx(pc uint32) int { return int(pc-isa.TextBase) / int(v.ib) }

// slots returns the idx range [lo, hi) of f's instruction slots. A
// function the walk analyzes starts on an instruction boundary, so its
// PCs are exactly start + k*ib below end.
func (v *verifier) slots(f funcSpan) (lo, hi int) { return v.idx(f.start), v.idx(f.end-1) + 1 }

// isCode reports whether pc holds an instruction (in text, outside
// pools, padding and in-text data).
func (v *verifier) isCode(pc uint32) bool {
	return v.inText(pc) && !v.img.InNonCode(pc)
}

func (v *verifier) violate(pc uint32, check, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d|%s|%s", pc, check, msg)
	if v.seen[key] || len(v.rep.Violations) >= maxViolations {
		return
	}
	v.seen[key] = true
	viol := Violation{PC: pc, Check: check, Msg: msg, Sym: v.symFor(pc)}
	if v.inText(pc) && v.derr[v.idx(pc)] == nil {
		viol.Instr = v.ins[v.idx(pc)].String()
	}
	v.rep.Violations = append(v.rep.Violations, viol)
}

// symFor returns the enclosing function name for pc. Addresses outside
// every function span (an entry point in a pool, a target off the
// partition) fall back to the image's closest-symbol lookup so verify
// and the static analyzer name code the same way.
func (v *verifier) symFor(pc uint32) string {
	for _, f := range v.funcs {
		if pc >= f.start && pc < f.end {
			return f.name
		}
	}
	return v.img.SymbolAt(pc)
}

func (v *verifier) run() {
	// Pre-decode every instruction slot.
	n := len(v.img.Text) / int(v.ib)
	v.ins = make([]isa.Instr, n)
	v.derr = make([]error, n)
	v.reached = make([]bool, n)
	v.control = make([]*xferRec, n)
	v.halts = make([]bool, n)
	for i := 0; i < n; i++ {
		pc := isa.TextBase + uint32(i)*v.ib
		if v.img.InNonCode(pc) {
			continue
		}
		v.rep.Instrs++
		if v.img.Enc == isa.EncD16 {
			w := binary.LittleEndian.Uint16(v.img.Text[i*2:])
			v.ins[i], v.derr[i] = d16.DecodeV(w, pc, d16.Variant{Cmp8: v.img.Cmp8})
		} else {
			w := binary.LittleEndian.Uint32(v.img.Text[i*4:])
			v.ins[i], v.derr[i] = dlxe.Decode(w, pc)
		}
	}

	v.partition()
	v.rep.Funcs = len(v.funcs)

	if !v.inText(v.img.Entry) {
		v.violate(v.img.Entry, CheckCFG, "entry point outside text segment")
		return
	}

	for _, f := range v.funcs {
		v.analyze(f)
	}
	for _, r := range v.reached {
		if r {
			v.rep.Reached++
		}
	}
}

// partition splits the text segment into functions at the addresses of
// non-local symbols (local labels carry a "." prefix by the assembler's
// convention). The entry point always starts a function.
func (v *verifier) partition() {
	v.starts = map[uint32]string{}
	var addrs []uint32
	if v.inText(v.img.Entry) {
		v.starts[v.img.Entry] = "_entry"
		addrs = append(addrs, v.img.Entry)
	}
	for _, name := range v.img.SymbolNames() { // address order, ties by name
		addr := v.img.Symbols[name]
		if len(name) == 0 || name[0] == '.' || !v.inText(addr) {
			continue
		}
		if old, ok := v.starts[addr]; !ok {
			addrs = append(addrs, addr)
			v.starts[addr] = name
		} else if old == "_entry" {
			v.starts[addr] = name
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for i, a := range addrs {
		end := v.textEnd()
		if i+1 < len(addrs) {
			end = addrs[i+1]
		}
		if end > a {
			v.funcs = append(v.funcs, funcSpan{name: v.starts[a], start: a, end: end})
		}
	}
}

// checkInstr validates one decoded instruction's operands against the
// target spec's field widths and feature restrictions — the invariants
// the compiler must respect even where the raw encoding is wider (a
// restricted DLXe variant shares DLXe's 32-bit fields).
func (v *verifier) checkInstr(pc uint32, in isa.Instr) {
	s := v.spec
	bad := func(format string, args ...any) { v.violate(pc, CheckEncoding, format, args...) }

	for _, r := range []isa.Reg{in.Rd, in.Rs1, in.Rs2} {
		if !r.Valid() {
			continue
		}
		if r.IsGPR() && r.Num() >= s.NumGPR {
			bad("register %s exceeds the %d-GPR register file", r, s.NumGPR)
		}
		if r.IsFPR() && r.Num() >= s.NumFPR {
			bad("register %s exceeds the %d-FPR register file", r, s.NumFPR)
		}
	}

	// Two-address targets require rd == rs1 for ALU operations. The one
	// sanctioned exception: rs1 == r0 on a hardwired-zero machine, the
	// standard DLXe idiom for neg (sub rd, r0, rs) and mv (add rd, r0, rs).
	if !s.ThreeAddress && twoAddressOp(in.Op) && in.Rd != in.Rs1 &&
		!(s.R0Zero && in.Rs1 == isa.RegCC) {
		bad("two-address target requires rd == rs1 (rd=%s rs1=%s)", in.Rd, in.Rs1)
	}

	switch in.Op {
	case isa.ADDI, isa.SUBI:
		if !s.FitsALUImm(in.Imm) {
			bad("ALU immediate %d outside [0,%d]", in.Imm, s.MaxALUImm())
		}
	case isa.SHLI, isa.SHRI, isa.SHRAI:
		if in.Imm < 0 || in.Imm > 31 {
			bad("shift amount %d outside [0,31]", in.Imm)
		}
	case isa.ANDI, isa.ORI, isa.XORI:
		if !s.HasLogicalImm {
			bad("logical immediates are not available on %s", s)
		}
		if in.Imm < 0 || in.Imm > 0xFFFF {
			bad("logical immediate %d outside unsigned 16-bit range", in.Imm)
		}
	case isa.MVI:
		if !s.FitsMVI(in.Imm) {
			lo, hi := s.MVIRange()
			bad("mvi immediate %d outside [%d,%d]", in.Imm, lo, hi)
		}
	case isa.MVHI:
		if !s.HasMVHI {
			bad("mvhi is not available on %s", s)
		}
	case isa.CMP:
		if in.HasImm {
			cmp8 := s.CmpImm8 && in.Cond == isa.EQ && in.Imm >= 0 && in.Imm <= 255
			if !s.HasCmpImm && !cmp8 {
				bad("compare-immediate is not available on %s", s)
			}
		}
		switch in.Cond {
		case isa.GT, isa.GTU, isa.GE, isa.GEU:
			if !s.HasGTConds {
				bad("compare condition %s is not available on %s", in.Cond, s)
			}
		}
	case isa.LD, isa.ST:
		if !s.FitsMemDisp(in.Imm) {
			bad("word displacement %d outside [0,%d] or misaligned", in.Imm, s.MaxMemDisp())
		}
	case isa.LDH, isa.LDHU, isa.LDB, isa.LDBU, isa.STH, isa.STB:
		if !s.SubwordDisp && in.Imm != 0 {
			bad("subword displacement %d on a target without offsettable subword modes", in.Imm)
		}
	case isa.BR, isa.BZ, isa.BNZ:
		ioff := in.Imm / int32(v.ib)
		if ioff < -int32(s.BranchRangeIns) || ioff >= int32(s.BranchRangeIns) {
			bad("branch displacement %d instructions outside ±%d reach", ioff, s.BranchRangeIns)
		}
	case isa.LDC:
		if !s.HasLDC {
			bad("ldc is not available on %s", s)
		}
	case isa.J, isa.JL:
		if in.HasImm && !s.HasJType {
			bad("J-format jumps are not available on %s", s)
		}
	case isa.JZ, isa.JNZ:
		if in.HasImm {
			bad("conditional jumps are register-absolute only")
		}
	case isa.TRAP:
		// Trap codes the simulator does not service fault at runtime;
		// surface them statically under the CFG family (they terminate).
		if in.Imm < 0 || in.Imm > 4 {
			v.violate(pc, CheckCFG, "trap code %d is not serviced by the simulator", in.Imm)
		}
	}
}

// twoAddressOp reports whether op is subject to the two-address
// restriction (destination must equal the left source) on restricted
// targets.
func twoAddressOp(op isa.Op) bool {
	switch op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SHRA,
		isa.ADDI, isa.SUBI, isa.SHLI, isa.SHRI, isa.SHRAI,
		isa.FADDS, isa.FSUBS, isa.FMULS, isa.FDIVS,
		isa.FADDD, isa.FSUBD, isa.FMULD, isa.FDIVD:
		return true
	}
	return false
}

// literal reads the 32-bit pool word an LDC at pc references. ok is
// false when the reference leaves the text segment.
func (v *verifier) literal(pc uint32, disp int32) (int32, bool) {
	t := int64(pc) + int64(disp)
	if t < int64(isa.TextBase) || t+4 > int64(v.textEnd()) || t%4 != 0 {
		return 0, false
	}
	return int32(binary.LittleEndian.Uint32(v.img.Text[t-int64(isa.TextBase):])), true
}
