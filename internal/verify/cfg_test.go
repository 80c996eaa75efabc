package verify_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/verify"
)

// The exported CFG must be internally consistent for every seed bench:
// block PC/instruction vectors agree, every successor is a block start
// in the same function, call targets are function entries, and every
// terminator reason is mutually exclusive with falling through.
func TestCFGConsistency(t *testing.T) {
	for _, spec := range append(isa.PaperConfigs(), isa.D16Plus()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, b := range bench.All() {
				c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
				if err != nil {
					t.Fatalf("%s: compile: %v", b.Name, err)
				}
				rep := verify.Image(c.Image, spec)
				g := rep.CFG()
				if g == nil {
					t.Fatalf("%s: clean image (%v) carries no CFG", b.Name, rep.Err())
				}
				if g.ByEntry[g.Entry] == nil {
					t.Fatalf("%s: no function at image entry %#x", b.Name, g.Entry)
				}
				for _, f := range g.Funcs {
					if len(f.Blocks) == 0 {
						t.Errorf("%s: %s has no blocks", b.Name, f.Name)
						continue
					}
					if f.BlockAt(f.Entry) == nil {
						t.Errorf("%s: %s entry %#x is not a block start", b.Name, f.Name, f.Entry)
					}
					for _, blk := range f.Blocks {
						if len(blk.PCs) == 0 || len(blk.PCs) != len(blk.Instrs) {
							t.Fatalf("%s: %s block %#x: %d PCs vs %d instrs",
								b.Name, f.Name, blk.Start, len(blk.PCs), len(blk.Instrs))
						}
						if blk.PCs[0] != blk.Start {
							t.Errorf("%s: %s block %#x starts with PC %#x",
								b.Name, f.Name, blk.Start, blk.PCs[0])
						}
						for _, s := range blk.Succs {
							if f.BlockAt(s) == nil {
								t.Errorf("%s: %s block %#x: successor %#x is not a block",
									b.Name, f.Name, blk.Start, s)
							}
						}
						if blk.HasCall && !blk.CallUnresolved && g.ByEntry[blk.CallTarget] == nil {
							t.Errorf("%s: %s block %#x: call target %#x is not a function",
								b.Name, f.Name, blk.Start, blk.CallTarget)
						}
						if (blk.Halts || blk.Unresolved) && len(blk.Succs) != 0 {
							t.Errorf("%s: %s block %#x: terminal block has successors",
								b.Name, f.Name, blk.Start)
						}
					}
				}
			}
		})
	}
}

// A text segment may end in data shorter than an instruction slot: the
// walk and the CFG cover the code before it and never index past the
// last whole slot.
func TestCFGTextEndsInDataByte(t *testing.T) {
	spec := isa.D16()
	img, err := asm.Assemble("odd.s", "\t.text\n_start:\n\tmvi r4, 1\n\ttrap 0\n\tnop\n\t.byte 7\n", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Text)%2 == 0 {
		t.Fatalf("text is %d bytes, want an odd length", len(img.Text))
	}
	rep := verify.Image(img, spec)
	if g := rep.CFG(); g == nil || len(g.Funcs) != 1 || len(g.Funcs[0].Blocks) != 1 {
		t.Fatalf("want one function of one block, got report:\n%v", rep.Err())
	}
}
