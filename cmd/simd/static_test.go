package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestStaticEndpoint checks GET /v1/static returns a well-formed
// analysis, is byte-deterministic across repeated requests, compiles
// each image once, and rejects bad parameters.
func TestStaticEndpoint(t *testing.T) {
	ts, _, _ := newStoreServer(t, 1)

	code, body := get(t, ts.URL+"/v1/static?bench=queens&config=d16")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/static: %d %s", code, body)
	}
	var rep struct {
		Bench  string `json:"bench"`
		Config string `json:"config"`
		Image  struct {
			Instrs    int64 `json:"instrs"`
			MinInstrs int64 `json:"min_instrs"`
		} `json:"image"`
		Bounds []struct {
			BusBytes  uint32 `json:"bus_bytes"`
			MinCycles int64  `json:"min_cycles"`
		} `json:"bounds"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if rep.Bench != "queens" || rep.Image.Instrs == 0 || rep.Image.MinInstrs == 0 {
		t.Fatalf("implausible report: %s", body)
	}
	if len(rep.Bounds) != 8 {
		t.Fatalf("got %d bound rows, want 8 (2 buses x 4 wait states)", len(rep.Bounds))
	}
	for _, b := range rep.Bounds {
		if b.MinCycles <= 0 {
			t.Errorf("bus=%d: min=%d, want > 0", b.BusBytes, b.MinCycles)
		}
	}

	compiles := telemetry.Default().Counter("mcc.compiles")
	before := compiles.Value()
	if _, again := get(t, ts.URL+"/v1/static?bench=queens&config=d16"); again != body {
		t.Error("repeated request body differs")
	}
	if n := compiles.Value() - before; n != 0 {
		t.Errorf("repeated request compiled %d times, want 0 (the lab memoizes the image)", n)
	}

	if code, body := get(t, ts.URL+"/v1/static?bench=nosuch&config=d16"); code != http.StatusBadRequest {
		t.Fatalf("unknown bench: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/static?bench=queens&config=nosuch"); code != http.StatusBadRequest {
		t.Fatalf("unknown config: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/static?bench=queens&config=d16&bogus=1"); code != http.StatusBadRequest {
		t.Fatalf("unknown param: %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/static", "{}"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/static: %d %s", code, body)
	}
	if !strings.Contains(body, `"config": "D16/16/2"`) {
		t.Errorf("config shorthand not resolved to paper name:\n%s", body)
	}
}
