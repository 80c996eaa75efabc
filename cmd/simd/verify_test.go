package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// TestVerifyRejectionFromWait checks that a verify failure reported by
// a ticket's Wait, where a run's compile fails on the lab's worker,
// maps to 422 with the violation table.
func TestVerifyRejectionFromWait(t *testing.T) {
	// D16 with a branch reach too short for the runtime library's
	// branches: every compile for it fails the verify gate.
	spec := *isa.D16()
	spec.Name, spec.BranchRangeIns = "D16/short-branch", 8
	sched := jobs.New(jobs.Config{Workers: 1, Registry: telemetry.NewRegistry()})
	defer sched.Shutdown(context.Background())
	lab := core.NewLabWith(sched)

	ctx := context.Background()
	tk, err := lab.TryMeasureTicket(ctx, bench.ByName("queens"), &spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = tk.Wait(ctx)
	rec := httptest.NewRecorder()
	if !writeVerifyRejection(rec, point{Bench: "queens", Config: spec.Name}, err) {
		t.Fatalf("Wait error %v was not taken for a verify rejection", err)
	}
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", rec.Code)
	}
	var body struct {
		Error  string         `json:"error"`
		Bench  string         `json:"bench"`
		Config string         `json:"config"`
		Report *verify.Report `json:"report"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if body.Bench != "queens" || body.Config != spec.Name || body.Report == nil || len(body.Report.Violations) == 0 {
		t.Fatalf("body names %q on %q with report %+v, want queens on %q with violations",
			body.Bench, body.Config, body.Report, spec.Name)
	}
	for _, v := range body.Report.Violations {
		if v.Check != verify.CheckEncoding || v.Msg == "" {
			t.Errorf("violation %+v, want an encoding finding with a message", v)
		}
	}
}
