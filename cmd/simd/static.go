package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/static"
)

// handleStatic answers GET /v1/static?bench=<name>&config=<name>: the
// static cost/density analysis of one compiled image — code density,
// ifetch traffic, loop bounds and sound cycle intervals — with zero
// simulation. The response is deterministic, so equal requests get
// byte-equal bodies. An image that fails static verification maps to
// 422 with the violation report, mirroring /v1/batch.
func (s *server) handleStatic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	for k := range q {
		if k != "bench" && k != "config" {
			http.Error(w, fmt.Sprintf("bad request: unknown parameter %q (valid: bench, config)", k),
				http.StatusBadRequest)
			return
		}
	}
	b := bench.ByName(q.Get("bench"))
	if b == nil {
		http.Error(w, fmt.Sprintf("bad request: unknown bench %q (valid: %s)",
			q.Get("bench"), strings.Join(benchNames(), ", ")), http.StatusBadRequest)
		return
	}
	spec := specByName(q.Get("config"))
	if spec == nil {
		http.Error(w, fmt.Sprintf("bad request: unknown config %q (valid: %s)",
			q.Get("config"), strings.Join(configNames(), ", ")), http.StatusBadRequest)
		return
	}

	rep, err := s.staticReport(b, spec)
	if err != nil {
		if writeVerifyRejection(w, point{Bench: b.Name, Config: spec.Name}, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(struct {
		Bench string `json:"bench"`
		*static.Report
	}{b.Name, rep}); encErr != nil {
		fmt.Fprintf(io.Discard, "%v", encErr)
	}
}

// staticReport analyzes one bench×config image. The image comes from
// the lab's compile memo, so a repeated request compiles nothing; the
// analyzer is fast enough (milliseconds per image) to run on the
// request goroutine. A dirty image fails the lab's compile gate and
// surfaces as the *verify.Error it wraps.
func (s *server) staticReport(b *bench.Benchmark, spec *isa.Spec) (*static.Report, error) {
	c, err := s.lab.Compile(b, spec)
	if err != nil {
		return nil, err
	}
	return static.Analyze(c.Image, spec)
}
