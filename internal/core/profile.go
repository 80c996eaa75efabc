package core

import (
	"context"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/store"
)

// BusProfile is one execution seen through cacheless fetch-bus models
// of several widths at once: a single simulation feeds one model per
// requested bus width, from which the closed-form Appendix A model
// expands cycles for any wait-state count. It is the sweep engine's
// workhorse — a B-bus × W-wait-state grid costs one run, not B×W.
// 2-, 4- and 8-byte models are read off the run loop's counters; other
// widths observe the run.
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

// BusProfileTicket submits a bus-profile run as a job and returns its
// ticket without waiting, so a sweep can fan hundreds of programs out
// across the lab's workers and drain them in a deterministic order.
// Results are served from the scheduler's content-addressed cache,
// keyed by the program image and the width set.
func (l *Lab) BusProfileTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec, buses []uint32) (*jobs.Ticket, error) {
	params := func(h *jobs.Hasher) {
		for _, w := range buses {
			h.Int(int64(w))
		}
	}
	return l.submit(ctx, false, "bus-profile", b, spec, params, func(c *mcc.Compiled) (any, error) {
		p := &BusProfile{
			Bench:        b.Name,
			Spec:         spec,
			BusBytes:     buses,
			Buses:        make([]*memsys.NoCache, len(buses)),
			SizeBytes:    c.Image.Size(),
			TextBytes:    len(c.Image.Text),
			StaticInstrs: c.Image.TextInstrs,
		}
		// Widths the run loop counts are read off its counters after the
		// run; any other width observes it.
		var obs []sim.Observer
		for i, w := range buses {
			if _, counted := (&sim.Stats{}).FetchBlocks(w); !counted {
				p.Buses[i] = memsys.NewNoCache(w)
				obs = append(obs, p.Buses[i])
			}
		}
		var err error
		if p.Output, p.Stats, err = l.run("bus-profile", b, spec, c, nil, obs...); err != nil {
			return nil, err
		}
		for i, w := range buses {
			if p.Buses[i] == nil {
				p.Buses[i] = loopBus(p.Stats, w)
			}
		}
		return p, nil
	})
}

// BusProfile is the synchronous form of BusProfileTicket.
func (l *Lab) BusProfile(b *bench.Benchmark, spec *isa.Spec, buses []uint32) (*BusProfile, error) {
	return await[*BusProfile](l.BusProfileTicket(context.Background(), b, spec, buses))
}
