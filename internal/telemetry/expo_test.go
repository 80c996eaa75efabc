package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("mcc.compiles").Add(3)
	r.Gauge("sim.instrs").Set(42)
	h := r.FixedHistogram("mcc.pass.opt.ns", []int64{10, 1000})
	h.Observe(3)
	h.Observe(900)
	r.RegisterFunc("live.value", func() int64 { return 7 })

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mcc_compiles counter\nmcc_compiles 3\n",
		"# TYPE sim_instrs gauge\nsim_instrs 42\n",
		"# TYPE live_value gauge\nlive_value 7\n",
		"# TYPE mcc_pass_opt_ns histogram\n",
		"mcc_pass_opt_ns_bucket{le=\"10\"} 1\n",
		"mcc_pass_opt_ns_bucket{le=\"1000\"} 2\n",
		"mcc_pass_opt_ns_bucket{le=\"+Inf\"} 2\n",
		"mcc_pass_opt_ns_sum 903\n",
		"mcc_pass_opt_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mcc.pass.opt-2.ns": "mcc_pass_opt_2_ns",
		"plain":             "plain",
		"9lead":             "_lead",
		"a:b_c9":            "a:b_c9",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePromEscapesNames checks every character outside the
// Prometheus grammar is rewritten, so a hostile or just unusual metric
// name can never produce an unparsable exposition line.
func TestWritePromEscapesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter(`http.request-latency/µs"x`).Inc()
	r.Gauge("9starts.with.digit").Set(1)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE http_request_latency__s_x counter\nhttp_request_latency__s_x 1\n",
		"# TYPE _starts_with_digit gauge\n_starts_with_digit 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	for _, bad := range []string{"µ", `"`, "/", "-", "\n9starts"} {
		if strings.Contains(out, bad) {
			t.Errorf("unescaped %q leaked into:\n%s", bad, out)
		}
	}
}

// TestWritePromGuardsNonFinite checks NaN and ±Inf float series are
// dropped rather than emitted (Prometheus parsers reject them).
func TestWritePromGuardsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var b strings.Builder
		s := Snapshot{Name: "x", Kind: "fixed_histogram", Count: 1, Sum: 1, Mean: v}
		if err := writePromFixed(&b, "x", s); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(), "_mean") {
			t.Errorf("mean=%v emitted:\n%s", v, b.String())
		}
	}
	var b strings.Builder
	if err := writePromFixed(&b, "x", Snapshot{Name: "x", Kind: "fixed_histogram", Count: 2, Sum: 10, Mean: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x_mean 5\n") {
		t.Errorf("finite mean dropped:\n%s", b.String())
	}
}

// TestWritePromStableUnderConcurrentRegistration registers metrics from
// many goroutines and checks repeated expositions render the full set in
// one stable (sorted) order — the scrape must not depend on insertion
// order or map iteration.
func TestWritePromStableUnderConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.Counter(fmt.Sprintf("c.%02d.%02d", g, i)).Inc()
				r.FixedHistogram(fmt.Sprintf("h.%02d.%02d", g, i), []int64{1, 10}).Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()

	var first strings.Builder
	if err := r.WriteProm(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var again strings.Builder
		if err := r.WriteProm(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("exposition order unstable between scrapes:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	// Every registered metric made it out, in sorted order.
	lines := strings.Split(first.String(), "\n")
	var typeNames []string
	for _, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			typeNames = append(typeNames, strings.Fields(l)[2])
		}
	}
	var counters int
	for _, n := range typeNames {
		if strings.HasPrefix(n, "c_") {
			counters++
		}
	}
	if counters != 200 {
		t.Fatalf("exposition has %d counters, want 200", counters)
	}
	// A fixed histogram emits its quantile/mean gauges right after the
	// histogram itself; ordering is by the base metric name.
	base := func(n string) string {
		for _, suf := range []string{"_p50", "_p90", "_p99", "_mean"} {
			n = strings.TrimSuffix(n, suf)
		}
		return n
	}
	for i := 1; i < len(typeNames); i++ {
		if base(typeNames[i]) < base(typeNames[i-1]) {
			t.Fatalf("TYPE lines out of order: %q after %q", typeNames[i], typeNames[i-1])
		}
	}
}

func TestBreakdownCheck(t *testing.T) {
	b := NewBreakdown("cycles", 10)
	b.Add("useful", 6)
	b.Add("stall", 4)
	if err := b.Check(); err != nil {
		t.Errorf("exact breakdown failed: %v", err)
	}
	if b.Parts[0].Percent != 60 {
		t.Errorf("percent = %v, want 60", b.Parts[0].Percent)
	}
	b.Add("leak", 1)
	if err := b.Check(); err == nil {
		t.Error("leaky breakdown passed Check")
	}
}
