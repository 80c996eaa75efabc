package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/synth"
)

// oracleSeed picks the synth programs the counter-identity oracle runs
// next to the seed suite: one per workload class.
const oracleSeed = 0x5eed

// loopWidths are the bus widths the run loop counts fetch blocks for.
var loopWidths = []uint32{2, 4, 8}

// oracles are the observers the counter-derived models are held to:
// real memsys.NoCache models of every loop-counted width (parallel to
// loopWidths) and an ImmStats classifier.
type oracles struct {
	buses []*memsys.NoCache
	imm   ImmStats
}

// attachOracles attaches the oracle observers to m.
func attachOracles(m *sim.Machine) *oracles {
	o := &oracles{}
	for _, w := range loopWidths {
		bus := memsys.NewNoCache(w)
		o.buses = append(o.buses, bus)
		m.Attach(bus)
	}
	m.Attach(&o.imm)
	return o
}

// checkCounters asserts, after a run with attachOracles' observers,
// the identities Measure and its BusProfile view rely on: each bus
// model read off the loop's counters equals the observed one of its width (so
// every width sees exactly one data request per load or store), and
// the immediate classification read off the loop's class counters
// equals the observed one field by field.
func checkCounters(t *testing.T, name string, m *sim.Machine, o *oracles) {
	t.Helper()
	for i, w := range loopWidths {
		got, want := loopBus(m.Stats, w), o.buses[i]
		if got.BusBytes != want.BusBytes || got.IRequests != want.IRequests || got.DRequests != want.DRequests {
			t.Errorf("%s: counter-derived bus %d/%d/%d, observed %d/%d/%d (bytes/ireq/dreq)",
				name, got.BusBytes, got.IRequests, got.DRequests, want.BusBytes, want.IRequests, want.DRequests)
		}
	}
	if got := loopImm(m.Stats); got != o.imm {
		t.Errorf("%s: counter-derived immediates %+v, observed %+v", name, got, o.imm)
	}
}

// TestBusCounterIdentity is the oracle for the bus models and the
// immediate classification core reads off the run loop's counters
// instead of observing, on one synth program per class under every
// paper configuration. The seed images (15 benchmarks × 5
// configurations) get the same check inside TestGoldenCells, which
// already runs each of them once.
func TestBusCounterIdentity(t *testing.T) {
	lab := NewLab()
	for _, class := range synth.Classes() {
		p, err := synth.Generate(class, oracleSeed)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench.Benchmark{Name: p.Name, Source: p.Source, MaxInstrs: p.MaxInstrs}
		for _, spec := range Configs() {
			c, err := lab.Compile(b, spec)
			if err != nil {
				t.Fatalf("compile %s on %s: %v", b.Name, spec.Name, err)
			}
			m, err := sim.New(c.Image)
			if err != nil {
				t.Fatal(err)
			}
			o := attachOracles(m)
			if err := m.Run(b.MaxInstrs); err != nil {
				t.Fatalf("run %s on %s: %v", b.Name, spec.Name, err)
			}
			checkCounters(t, b.Name+" on "+spec.Name, m, o)
		}
	}
}

// selfSlotProgram branches to its own delay slot, so the slot's pc
// executes twice in a row: once as the delay slot, once as the branch
// target. A repeated pc is no new block on any bus, which rules out
// shortcuts such as "2-byte requests == Instrs". The loop around it
// repeats the pattern with a load, a store and a wide immediate.
const selfSlotProgram = `
	.text
	.global _start
_start:
	mvi r4, 3
.Lloop:
	st r4, 0(gp)
	br .Lslot
.Lslot:
	ld r5, 0(gp)
	subi r4, r4, 1
	mv CC, r4
	bnz CC, .Lloop
	nop
	trap 0
	nop
	.pool
	.data
acc:	.word 0
`

// TestBusCounterSelfSlot runs selfSlotProgram on both encodings: the
// counter-derived models must match the observers, and the 2-byte bus
// must see fewer fetch requests than instructions.
func TestBusCounterSelfSlot(t *testing.T) {
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		cc := "r0"
		if !spec.R0IsCC {
			cc = "r15"
		}
		img, err := asm.Assemble("selfslot.s", strings.ReplaceAll(selfSlotProgram, "CC", cc), spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(img)
		if err != nil {
			t.Fatal(err)
		}
		o := attachOracles(m)
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		name := "self-slot on " + spec.Name
		checkCounters(t, name, m, o)
		// Three iterations each execute their delay slot twice.
		if got, want := m.Stats.FetchHalfwords, m.Stats.Instrs-3; got != want {
			t.Errorf("%s: %d 2-byte fetch requests for %d instructions, want %d", name, got, m.Stats.Instrs, want)
		}
	}
}

// TestBusProfileMatchesObservers checks Measurement.BusProfile, which
// reads every width off the loop's counters, against a NoCache
// observer of each counted width on a direct run, on both encodings.
// A width the loop does not count is an error.
func TestBusProfileMatchesObservers(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("towers")
	widths := []uint32{8, 4, 2}
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		ms, err := lab.Measure(b, spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ms.BusProfile(widths)
		if err != nil {
			t.Fatal(err)
		}
		if p.Output != ms.Output || p.Stats != ms.Stats {
			t.Errorf("%s: the profile's run differs from its measurement's", spec.Name)
		}
		c, err := lab.Compile(b, spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(c.Image)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*memsys.NoCache, len(widths))
		for i, w := range widths {
			want[i] = memsys.NewNoCache(w)
			m.Attach(want[i])
		}
		if err := m.Run(b.MaxInstrs); err != nil {
			t.Fatal(err)
		}
		for i, got := range p.Buses {
			if got.BusBytes != want[i].BusBytes || got.IRequests != want[i].IRequests || got.DRequests != want[i].DRequests {
				t.Errorf("%s: %d-byte bus %d/%d requests, observed %d/%d",
					spec.Name, widths[i], got.IRequests, got.DRequests, want[i].IRequests, want[i].DRequests)
			}
		}
		_, err = ms.BusProfile([]uint32{4, 16})
		if err == nil || !strings.Contains(err.Error(), "2-, 4- and 8-byte") {
			t.Errorf("%s: 16-byte bus profile error %v, want one naming the counted widths", spec.Name, err)
		}
	}
}
