package core

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/store"
)

// ConfigByName resolves a compiler configuration by its paper column
// name ("D16/16/2", "DLXe/32/3", ...) or the shorthands "d16" and
// "dlxe" (case-insensitive); nil when unknown. It is the shared name
// resolution of simd, repro -explain and the batch API.
func ConfigByName(name string) *isa.Spec {
	switch strings.ToLower(name) {
	case "d16":
		return isa.D16()
	case "dlxe":
		return isa.DLXe()
	}
	for _, s := range Configs() {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// AccountPoint converts one cycle-accounted engine run into a store
// point: bucket-for-bucket from the engine's attribution (so the
// store's sum==cycles invariant holds by construction) under the
// identity (bench, config, bus, waits, cachekb). Unlike
// Measurement.Points, which expands the closed-form Appendix A model,
// the point carries measured pipeline behaviour — including port
// contention and cache misses — which is what lets cached-memory
// configurations (CacheKB > 0) land in points.mcst at all.
func AccountPoint(benchName, cfgName string, c *mcc.Compiled, e *pipeline.Engine, ac AccountConfig) store.Point {
	p := store.Point{
		Bench:        benchName,
		Config:       cfgName,
		BusBytes:     int64(ac.BusBytes),
		WaitStates:   ac.WaitStates,
		CacheKB:      int64(ac.CacheBytes / 1024),
		Cycles:       e.Cycles(),
		Instrs:       e.Instrs,
		IFetchBytes:  e.FetchBytes(),
		DMemBytes:    e.DataRequests * 4,
		SizeBytes:    int64(c.Image.Size()),
		TextBytes:    int64(len(c.Image.Text)),
		StaticInstrs: int64(c.Image.TextInstrs),
	}
	bd := e.Breakdown()
	for b := 0; b < pipeline.NumBuckets; b++ {
		p.Buckets[b] = bd[b]
	}
	return p
}

// pointWaits is the wait-state grid a measurement expands into — the
// same ℓ = 0..3 range SummaryRow reports CPI over.
var pointWaits = []int64{0, 1, 2, 3}

// pointBuses are the fetch-bus widths a measurement's own points cover:
// the 32- and 64-bit buses of Bus32 and Bus64.
var pointBuses = []uint32{4, 8}

// Points expands one measurement into its columnar store points: one
// point per cacheless memory interface (32- and 64-bit fetch bus) per
// wait-state count, with the Appendix A cycle attribution (see
// appendixPoints).
func (m *Measurement) Points() []store.Point {
	p, err := m.BusProfile(pointBuses)
	if err != nil {
		panic(err) // unreachable: the run loop counts both widths
	}
	return p.Points(pointWaits)
}

// BusProfile is one execution seen through cacheless fetch-bus models
// of several widths at once, from which the closed-form Appendix A
// model expands cycles for any wait-state count. It is the sweep
// engine's workhorse — a B-bus × W-wait-state grid costs one run, not
// B×W. Measurement.BusProfile derives one from a measurement.
type BusProfile struct {
	Bench  string
	Spec   *isa.Spec
	Output string
	Stats  sim.Stats

	BusBytes []uint32          // the requested widths, in request order
	Buses    []*memsys.NoCache // parallel to BusBytes

	SizeBytes    int
	TextBytes    int
	StaticInstrs int
}

// BusProfile views the measurement through a cacheless bus model per
// requested width, each read off the run loop's fetch-block counters
// (see loopBus). The loop counts 2-, 4- and 8-byte buses; any other
// width is an error.
func (m *Measurement) BusProfile(widths []uint32) (*BusProfile, error) {
	p := &BusProfile{
		Bench:        m.Bench,
		Spec:         m.Spec,
		Output:       m.Output,
		Stats:        m.Stats,
		BusBytes:     widths,
		Buses:        make([]*memsys.NoCache, len(widths)),
		SizeBytes:    m.Size,
		TextBytes:    m.TextBytes,
		StaticInstrs: m.StaticInstrs,
	}
	for i, w := range widths {
		if p.Buses[i] = loopBus(m.Stats, w); p.Buses[i] == nil {
			return nil, fmt.Errorf("core: no %d-byte bus model: the run loop counts 2-, 4- and 8-byte buses", w)
		}
	}
	return p, nil
}

// Points expands the profile into store points over the wait-state
// grid: one point per (bus width, wait states), with the Appendix A
// cycle attribution (see appendixPoints).
func (p *BusProfile) Points(waits []int64) []store.Point {
	return appendixPoints(store.Point{
		Bench:        p.Bench,
		Config:       p.Spec.Name,
		SizeBytes:    int64(p.SizeBytes),
		TextBytes:    int64(p.TextBytes),
		StaticInstrs: int64(p.StaticInstrs),
	}, p.Stats, p.Buses, waits)
}

// appendixPoints is the one Appendix A expansion of a cacheless run:
// one copy of base (which carries the identity and static measures) per
// bus model per wait-state count, bus-major. The cycle attribution
// follows the model exactly — useful issue cycles (one per
// instruction), interlock stalls in the load-delay bucket, and
// wait-state cycles split between the instruction- and data-side
// requests — so the bucket sum reconstructs NoCache.Cycles and
// store.Validate's invariant holds by construction.
func appendixPoints(base store.Point, st sim.Stats, buses []*memsys.NoCache, waits []int64) []store.Point {
	out := make([]store.Point, 0, len(buses)*len(waits))
	for _, bus := range buses {
		for _, w := range waits {
			p := base
			p.BusBytes = int64(bus.BusBytes)
			p.WaitStates = w
			p.Cycles = bus.Cycles(st.Instrs, st.Interlocks, w)
			p.Instrs = st.Instrs
			p.IFetchBytes = bus.IRequests * int64(bus.BusBytes)
			p.DMemBytes = bus.DRequests * 4
			p.Buckets[store.BUseful] = st.Instrs
			p.Buckets[store.BLoadDelay] = st.Interlocks
			p.Buckets[store.BIFetchWait] = w * bus.IRequests
			p.Buckets[store.BDMemWait] = w * bus.DRequests
			out = append(out, p)
		}
	}
	return out
}

// Points returns the canonical point set of every memoized measurement
// — the surface `repro -json` persists as points.mcst and simd appends
// to its -store file as batches complete.
func (l *Lab) Points() []store.Point {
	var out []store.Point
	for _, m := range l.Measurements() {
		out = append(out, m.Points()...)
	}
	return store.Canon(out)
}
