package main

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// tracer records the benchmark's own spans around its calls into each
// layer. Span IDs are "<workload>/<n>", so spans recorded in different
// processes merge into one trace without clashing; every span names its
// parent in Args ("" for a workload's root span).
type tracer struct {
	workload string
	pid      int
	epoch    time.Time
	next     int
	events   []telemetry.Event
}

func newTracer(workload string, pid int) *tracer {
	return &tracer{workload: workload, pid: pid, epoch: time.Now()}
}

type span struct {
	t      *tracer
	id     string
	parent string
	name   string
	start  time.Time
}

// start opens a span under parent ("" for a root span).
func (t *tracer) start(name, parent string) *span {
	t.next++
	return &span{t: t, id: t.workload + "/" + strconv.Itoa(t.next), parent: parent,
		name: name, start: time.Now()}
}

// end records the span and returns its duration in seconds.
func (s *span) end() float64 {
	d := time.Since(s.start)
	s.t.events = append(s.t.events, telemetry.Event{
		Name: s.name,
		Cat:  s.t.workload,
		Ph:   "X",
		TS:   float64(s.start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(d.Nanoseconds()) / 1e3,
		PID:  s.t.pid,
		TID:  1,
		Args: map[string]string{"id": s.id, "parent": s.parent},
	})
	return d.Seconds()
}

// layer runs fn as one span named after the layer, under parent, and
// returns its duration in seconds.
func (t *tracer) layer(parent, name string, fn func() error) (float64, error) {
	s := t.start(name, parent)
	err := fn()
	return s.end(), err
}

// shift moves events recorded against epoch onto a timeline starting at
// base, so spans from child processes line up with the parent's.
func shift(events []telemetry.Event, epoch, base time.Time) []telemetry.Event {
	off := float64(epoch.Sub(base).Nanoseconds()) / 1e3
	for i := range events {
		events[i].TS += off
	}
	return events
}

// writeTrace writes events to dir/trace.json as a Chrome trace, with
// each workload's process lane named after it.
func writeTrace(dir string, events []telemetry.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, w := range workloads {
		events = append(events, telemetry.Event{Name: "process_name", Ph: "M", PID: i + 1,
			Args: map[string]string{"name": w}})
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
