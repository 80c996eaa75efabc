package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/decode"
)

// Property: over any execution trace, a wider bus never issues more
// fetch requests (each wide block covers whole narrow blocks).
func TestWiderBusNeverFetchesMore(t *testing.T) {
	f := func(seeds []uint16, jumps []bool) bool {
		n32 := NewNoCache(4)
		n64 := NewNoCache(8)
		pc := uint32(0x1000)
		for i, s := range seeds {
			if i < len(jumps) && jumps[i] {
				pc = 0x1000 + uint32(s)*2
			} else {
				pc += 2
			}
			n32.Exec(pc, decode.Op{})
			n64.Exec(pc, decode.Op{})
		}
		return n64.IRequests <= n32.IRequests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: request counts are latency-independent, and cycles are
// monotonically non-decreasing in wait states.
func TestCyclesMonotoneInWaitStates(t *testing.T) {
	f := func(pcs []uint16, instrs uint16, interlocks uint8) bool {
		n := NewNoCache(4)
		for _, p := range pcs {
			n.Exec(0x1000+uint32(p)*4, decode.Op{})
		}
		ic := int64(instrs) + int64(len(pcs)) + 1
		il := int64(interlocks)
		prev := int64(-1)
		for l := int64(0); l <= 4; l++ {
			c := n.Cycles(ic, il, l)
			if c < prev {
				return false
			}
			prev = c
		}
		// Zero-latency cycles are exactly IC + interlocks.
		return n.Cycles(ic, il, 0) == ic+il
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fetch stream with no discontinuities requests exactly
// ceil(span / busBytes) blocks.
func TestSequentialRequestCount(t *testing.T) {
	for _, bus := range []uint32{4, 8} {
		n := NewNoCache(bus)
		count := uint32(237)
		for i := uint32(0); i < count; i++ {
			n.Exec(0x2000+2*i, decode.Op{})
		}
		span := 2 * count
		want := int64((span + bus - 1) / bus)
		if n.IRequests != want {
			t.Errorf("bus %d: %d requests, want %d", bus, n.IRequests, want)
		}
	}
}
