package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSpanNestingInExport records parent>child>grandchild spans and
// checks the exported Chrome trace: valid JSON, start-time ordering, and
// time containment (which is what makes the viewer nest them).
func TestSpanNestingInExport(t *testing.T) {
	tr := NewTracer()
	parent := tr.Start("measure", String("bench", "dhrystone"), String("config", "D16"))
	time.Sleep(2 * time.Millisecond)
	child := tr.Start("compile")
	time.Sleep(2 * time.Millisecond)
	grand := tr.Start("assemble")
	time.Sleep(2 * time.Millisecond)
	grand.End()
	child.End()
	time.Sleep(2 * time.Millisecond)
	parent.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]Event{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", e.Name, e.Ph)
		}
		byName[e.Name] = e
	}
	m, c, a := byName["measure"], byName["compile"], byName["assemble"]
	if m.Args["bench"] != "dhrystone" || m.Args["config"] != "D16" {
		t.Errorf("span args lost: %+v", m.Args)
	}
	contains := func(outer, inner Event) bool {
		return inner.TS >= outer.TS && inner.TS+inner.Dur <= outer.TS+outer.Dur
	}
	if !contains(m, c) || !contains(c, a) {
		t.Errorf("spans do not nest by containment:\nmeasure %v+%v\ncompile %v+%v\nassemble %v+%v",
			m.TS, m.Dur, c.TS, c.Dur, a.TS, a.Dur)
	}
	// Events() is ordered by start time.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("events out of order: %v after %v", evs[i].TS, evs[i-1].TS)
		}
	}
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	SetGlobalTracer(nil)
	s := StartSpan("anything", String("k", "v"))
	s.Annotate("k2", "v2")
	s.End() // must not panic
	var tr *Tracer
	if tr.Start("x") != nil {
		t.Error("nil tracer produced a live span")
	}
	if tr.Events() != nil {
		t.Error("nil tracer produced events")
	}
}

func TestGlobalTracerCollects(t *testing.T) {
	tr := NewTracer()
	SetGlobalTracer(tr)
	defer SetGlobalTracer(nil)
	StartSpan("stage").End()
	d := tr.DurationsByName()
	if _, ok := d["stage"]; !ok || len(tr.Events()) != 1 {
		t.Errorf("global span not recorded: %v", tr.Events())
	}
}

func TestStartOnRecordsLane(t *testing.T) {
	tr := NewTracer()
	SetGlobalTracer(tr)
	defer SetGlobalTracer(nil)
	StartSpan("main").End()
	StartSpanOn(3, "shard").End()
	lanes := map[string]int{}
	for _, e := range tr.Events() {
		lanes[e.Name] = e.TID
	}
	if lanes["main"] != 1 || lanes["shard"] != 3 {
		t.Errorf("lanes = %v, want main on 1 and shard on 3", lanes)
	}
}
