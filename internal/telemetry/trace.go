package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key=value span attribute; it lands in the trace event's
// args object.
type Attr struct {
	Key   string
	Value string
}

// String builds an attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one Chrome trace_event entry (the subset the exporter emits:
// complete events, ph "X", timestamps in microseconds).
//
// The format is documented in the Trace Event Format spec; files load in
// chrome://tracing and https://ui.perfetto.dev.
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`            // microseconds since trace start
	Dur  float64           `json:"dur,omitempty"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Tracer records spans. All methods are safe for concurrent use; spans
// recorded on one lane (trace thread ID) from one goroutine nest by
// time containment when viewed.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Span is one in-flight operation; End records it. A nil Span (from a
// disabled tracer) is a no-op, so callers never need to check.
type Span struct {
	t     *Tracer
	tid   int
	name  string
	args  map[string]string
	start time.Time
}

// Start opens a span on lane 1. Call End on the returned span when the
// operation completes.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.StartOn(1, name, attrs...)
}

// StartOn opens a span on the given lane (the trace event's thread ID),
// so work running concurrently with lane 1 renders as its own track
// instead of overlapping lane 1's spans.
func (t *Tracer) StartOn(tid int, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, tid: tid, name: name, start: time.Now()}
	if len(attrs) > 0 {
		s.args = make(map[string]string, len(attrs))
		for _, a := range attrs {
			s.args[a.Key] = a.Value
		}
	}
	return s
}

// End records the span as a complete ("X") trace event.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.events = append(s.t.events, Event{
		Name: s.name,
		Ph:   "X",
		TS:   float64(s.start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(s.start).Nanoseconds()) / 1e3,
		PID:  1,
		TID:  s.tid,
		Args: s.args,
	})
	s.t.mu.Unlock()
}

// Annotate adds an attribute to an open span.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.t == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = value
}

// Events returns a copy of the recorded events in start-time order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// DurationsByName sums recorded span durations per span name.
func (t *Tracer) DurationsByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, e := range t.Events() {
		out[e.Name] += time.Duration(e.Dur * 1e3)
	}
	return out
}

// WriteChromeTrace writes events as a Chrome trace_event JSON document
// (object form, loadable in chrome://tracing / Perfetto). Any event
// producer can use it; the pipeline flight recorder exports its
// per-stage lanes through the same writer the span tracer uses.
func WriteChromeTrace(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// WriteChromeTrace writes every recorded span as a Chrome trace_event
// JSON document.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Events())
}

// globalTracer is consulted by StartSpan; nil (the default) makes every
// span a no-op so instrumented code pays one atomic load when tracing is
// off.
var globalTracer atomic.Pointer[Tracer]

// SetGlobalTracer installs (or, with nil, removes) the process tracer.
func SetGlobalTracer(t *Tracer) { globalTracer.Store(t) }

// GlobalTracer returns the installed tracer, or nil.
func GlobalTracer() *Tracer { return globalTracer.Load() }

// StartSpan opens a span on the global tracer (a no-op span when tracing
// is disabled).
func StartSpan(name string, attrs ...Attr) *Span {
	return globalTracer.Load().Start(name, attrs...)
}

// StartSpanOn opens a span on the given lane of the global tracer (see
// Tracer.StartOn).
func StartSpanOn(tid int, name string, attrs ...Attr) *Span {
	return globalTracer.Load().StartOn(tid, name, attrs...)
}
