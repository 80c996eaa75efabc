package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/synth"
)

// oracleSeed picks the synth programs the counter-identity oracle runs
// next to the seed suite: one per workload class.
const oracleSeed = 0x5eed

// attachBusOracles attaches real memsys.NoCache observers of both paper
// bus widths to m: the reference the counter-derived bus model is held
// to.
func attachBusOracles(m *sim.Machine) []*memsys.NoCache {
	oracles := []*memsys.NoCache{memsys.NewNoCache(4), memsys.NewNoCache(8)}
	for _, o := range oracles {
		m.Attach(o)
	}
	return oracles
}

// checkBusCounters asserts the identities wordBus relies on, after a
// run with attachBusOracles' observers: the model read off the loop's
// counters equals the observed 4-byte one, and every width sees exactly
// one data request per load or store.
func checkBusCounters(t *testing.T, name string, st sim.Stats, oracles []*memsys.NoCache) {
	t.Helper()
	got, want := wordBus(st), oracles[0]
	if got.BusBytes != want.BusBytes || got.IRequests != want.IRequests || got.DRequests != want.DRequests {
		t.Errorf("%s: counter-derived bus %d/%d/%d, observed %d/%d/%d (bytes/ireq/dreq)",
			name, got.BusBytes, got.IRequests, got.DRequests, want.BusBytes, want.IRequests, want.DRequests)
	}
	for _, o := range oracles {
		if o.DRequests != st.Loads+st.Stores {
			t.Errorf("%s: %d-byte bus saw %d data requests, loop counted %d loads + %d stores",
				name, o.BusBytes, o.DRequests, st.Loads, st.Stores)
		}
	}
}

// TestBusCounterIdentity is the oracle for the 4-byte bus model core
// reads off the run loop's counters instead of observing, on one synth
// program per class under every paper configuration. The seed images
// (15 benchmarks × 5 configurations) get the same check inside
// TestGoldenCells, which already runs each of them once.
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
			oracles := attachBusOracles(m)
			if err := m.Run(b.MaxInstrs); err != nil {
				t.Fatalf("run %s on %s: %v", b.Name, spec.Name, err)
			}
			checkBusCounters(t, b.Name+" on "+spec.Name, m.Stats, oracles)
		}
	}
}
