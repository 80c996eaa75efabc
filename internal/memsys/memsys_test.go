package memsys

import (
	"testing"

	"repro/internal/decode"
	"repro/internal/isa"
)

func TestSequentialFetchBuffering(t *testing.T) {
	// 8 sequential D16 instructions (2 bytes each) through a 32-bit bus:
	// 4 requests. Through a 64-bit bus: 2 requests.
	n32 := NewNoCache(4)
	n64 := NewNoCache(8)
	for pc := uint32(0x1000); pc < 0x1010; pc += 2 {
		n32.Exec(pc, decode.Op{})
		n64.Exec(pc, decode.Op{})
	}
	if n32.IRequests != 4 {
		t.Errorf("32-bit bus requests = %d, want 4", n32.IRequests)
	}
	if n64.IRequests != 2 {
		t.Errorf("64-bit bus requests = %d, want 2", n64.IRequests)
	}
	if k := n32.K(isa.EncD16); k != 2 {
		t.Errorf("k = %d, want 2", k)
	}
	if k := n64.K(isa.EncD16); k != 4 {
		t.Errorf("k = %d, want 4", k)
	}
}

func TestBranchFlushesBuffer(t *testing.T) {
	n := NewNoCache(4)
	n.Exec(0x1000, decode.Op{})
	n.Exec(0x2000, decode.Op{}) // taken branch to another block
	n.Exec(0x1000, decode.Op{}) // back again: buffer held 0x2000's block
	if n.IRequests != 3 {
		t.Errorf("requests = %d, want 3", n.IRequests)
	}
}

func TestCyclesFormula(t *testing.T) {
	n := NewNoCache(4)
	for pc := uint32(0x1000); pc < 0x1028; pc += 4 { // 10 DLXe instructions
		n.Exec(pc, decode.Op{})
	}
	n.Load(0x4000, 4)
	n.Store(0x4004, 4)
	// IC=10, interlocks=3, wait=2: cycles = 10 + 3 + 2*(10+2) = 37.
	if got := n.Cycles(10, 3, 2); got != 37 {
		t.Errorf("cycles = %d, want 37", got)
	}
	if cpi := n.CPI(10, 3, 0); cpi != 1.3 {
		t.Errorf("zero-wait CPI = %v, want 1.3", cpi)
	}
	if f := n.FetchesPerCycle(10, 0, 0); f != 1.0 {
		t.Errorf("saturation = %v, want 1.0", f)
	}
}
