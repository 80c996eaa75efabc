// Package verify is the machine-code verifier: a static-analysis gate
// that runs over every linked image before simulation and proves the
// encoding, control-flow and calling-convention invariants the paper's
// density and path-length arguments depend on.
//
// Four layers of checks run per image (see docs/VERIFY.md):
//
//   - encoding: every reachable instruction decodes, and its operands
//     respect the target Spec's field widths (5-bit ALU immediates,
//     9-bit MVI and 7-bit word displacements on D16; 16-bit fields and
//     J-format reach on DLXe), register-file limits and address arity;
//   - control flow: branch and LDC targets stay inside the text
//     segment, never land in literal pools or padding, delay slots hold
//     plain instructions, trap codes are ones the simulator services,
//     and no code is unreachable;
//   - dataflow: no register is read on a path where nothing defined it;
//   - stack discipline: the stack pointer is balanced on every return
//     path and callee-saved registers (including the link register) are
//     restored before use as a return address.
package verify

import (
	"fmt"
	"io"
	"strings"
)

// Violation is one verifier finding, anchored to the program counter of
// the offending instruction.
type Violation struct {
	// PC is the address of the instruction the finding is about.
	PC uint32 `json:"pc"`
	// Sym is the enclosing function symbol (empty if none).
	Sym string `json:"sym,omitempty"`
	// Check names the rule that fired (e.g. "encoding", "cfg",
	// "def-use", "stack").
	Check string `json:"check"`
	// Instr is the disassembled instruction, when it decodes.
	Instr string `json:"instr,omitempty"`
	// Msg says what is wrong.
	Msg string `json:"msg"`
}

func (v Violation) String() string {
	loc := fmt.Sprintf("%#06x", v.PC)
	if v.Sym != "" {
		loc += " (" + v.Sym + ")"
	}
	if v.Instr != "" {
		return fmt.Sprintf("%s [%s] %q: %s", loc, v.Check, v.Instr, v.Msg)
	}
	return fmt.Sprintf("%s [%s] %s", loc, v.Check, v.Msg)
}

// Check identifiers, one per rule family.
const (
	CheckEncoding = "encoding" // field widths, register files, spec invariants
	CheckCFG      = "cfg"      // targets, delay slots, traps, reachability
	CheckDefUse   = "def-use"  // register read with no reaching definition
	CheckStack    = "stack"    // sp balance and callee-saved restoration
)

// Report is the outcome of verifying one image.
type Report struct {
	// Config is the Spec the image was verified against.
	Config string `json:"config"`
	// Enc is "D16" or "DLXe".
	Enc string `json:"enc"`
	// Instrs is the number of instruction slots checked (text words
	// outside pools and padding).
	Instrs int `json:"instrs"`
	// Reached is the number of instructions proven reachable.
	Reached int `json:"reached"`
	// Funcs is the number of function symbols analyzed.
	Funcs int `json:"funcs"`
	// Violations lists every finding in address order.
	Violations []Violation `json:"violations,omitempty"`

	cfg *CFG
}

// OK reports whether the image passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// CFG returns the control-flow graph the verifying walk reconstructed,
// or nil when the image was rejected. Every block's instructions
// provably decode and every edge passed the target checks.
func (r *Report) CFG() *CFG { return r.cfg }

// Err returns nil for a clean report and an *Error otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Report: r}
}

// WriteTable renders the report as an aligned text table (one line per
// violation, or a single "ok" line).
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "verify %s: %d instrs, %d reachable, %d funcs: ", r.Config, r.Instrs, r.Reached, r.Funcs)
	if r.OK() {
		fmt.Fprintf(w, "ok\n")
		return
	}
	fmt.Fprintf(w, "%d violations\n", len(r.Violations))
	fmt.Fprintf(w, "  %-10s %-16s %-8s %-28s %s\n", "pc", "function", "check", "instruction", "violation")
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %-10s %-16s %-8s %-28s %s\n",
			fmt.Sprintf("%#06x", v.PC), v.Sym, v.Check, v.Instr, v.Msg)
	}
}

// Error is the typed failure a rejected image produces; callers unwrap
// it to reach the per-PC violation list (mcrun/repro exit 3 on it, simd
// maps it to HTTP 422).
type Error struct {
	Report *Report
}

func (e *Error) Error() string {
	const show = 4
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s image rejected: %d violation(s)", e.Report.Config, len(e.Report.Violations))
	for i, v := range e.Report.Violations {
		if i == show {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Report.Violations)-show)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return b.String()
}
