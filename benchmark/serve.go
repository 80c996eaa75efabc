package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// servedKey is one bench × config point simd can measure.
type servedKey struct{ Bench, Config string }

// servedKeys returns every point simd addresses by name: each suite
// benchmark on each of the paper's five configurations.
func servedKeys() []servedKey {
	var out []servedKey
	for _, b := range bench.All() {
		for _, s := range isa.PaperConfigs() {
			out = append(out, servedKey{b.Name, s.Name})
		}
	}
	return out
}

// warmExperiments are the warm mix's experiment points: experiments
// built from Measure calls alone, so the cold phase has already
// simulated everything they read.
var warmExperiments = []string{"fig4", "fig14", "tab9", "tab11"}

type reqKind int

const (
	kindBatch reqKind = iota
	kindQuery
	kindExperiment
	numKinds
)

// request is one HTTP request of a serve session.
type request struct {
	kind   reqKind
	method string
	target string // path and query string
	body   []byte
	points int    // measurement points a batch asks for
	filter string // a query's filter in the store grammar
}

// batchPoint is one point of a POST /v1/batch body.
type batchPoint struct {
	Bench      string `json:"bench,omitempty"`
	Config     string `json:"config,omitempty"`
	Experiment string `json:"experiment,omitempty"`
}

func batch(kind reqKind, pts []batchPoint) request {
	body, err := json.Marshal(struct {
		Points []batchPoint `json:"points"`
	}{pts})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	r := request{kind: kind, method: http.MethodPost, target: "/v1/batch", body: body}
	if kind == kindBatch {
		r.points = len(pts)
	}
	return r
}

// coldBatches shuffles keys by seed and posts each once, in batches of
// coldBatchPoints.
func coldBatches(seed int64, keys []servedKey) []request {
	r := rand.New(rand.NewSource(seed))
	order := append([]servedKey(nil), keys...)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var out []request
	for len(order) > 0 {
		n := min(coldBatchPoints, len(order))
		pts := make([]batchPoint, n)
		for i, k := range order[:n] {
			pts[i] = batchPoint{Bench: k.Bench, Config: k.Config}
		}
		out = append(out, batch(kindBatch, pts))
		order = order[n:]
	}
	return out
}

// Warm mix shares, in percent: batches, then queries; experiment
// points take the rest.
const (
	batchShare = 60
	queryShare = 30
)

// The shares above, the 1-8 batch sizes and the experiment IDs define
// the warm mix. No traffic from simd's users has been recorded to derive
// the rest from, so each remaining choice is the plainest one: keys
// follow Zipf's law in its original form (exponent 1), and batch sizes,
// filter terms and experiment IDs are drawn uniformly.

// zipfCDF is the cumulative distribution of Zipf's law with exponent 1
// over n ranks: rank i (from 0) has weight 1/(i+1).
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// warmSequence draws n requests from seed: 60% batches of 1-8 points
// (uniform) drawn Zipf-skewed over keys, with the hottest keys in a
// seeded order; 30% queries with seeded filters; 10% single experiment
// points drawn uniformly from exps (batches instead when exps is empty).
func warmSequence(seed int64, n int, keys []servedKey, exps []string) []request {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	hot := append([]servedKey(nil), keys...)
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	cdf := zipfCDF(len(hot))
	var benches, configs []string
	seenBench, seenConfig := map[string]bool{}, map[string]bool{}
	for _, k := range keys {
		if !seenBench[k.Bench] {
			seenBench[k.Bench] = true
			benches = append(benches, k.Bench)
		}
		if !seenConfig[k.Config] {
			seenConfig[k.Config] = true
			configs = append(configs, k.Config)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		switch roll := r.Intn(100); {
		case roll < batchShare || (roll >= batchShare+queryShare && len(exps) == 0):
			pts := make([]batchPoint, 1+r.Intn(8))
			for i := range pts {
				k := hot[sort.SearchFloat64s(cdf, r.Float64())]
				pts[i] = batchPoint{Bench: k.Bench, Config: k.Config}
			}
			out = append(out, batch(kindBatch, pts))
		case roll < batchShare+queryShare:
			out = append(out, query(r, benches, configs))
		default:
			out = append(out, batch(kindExperiment, []batchPoint{{Experiment: exps[r.Intn(len(exps))]}}))
		}
	}
	return out
}

// query draws one GET /v1/query filter over the four dimensions of the
// served surface: each of bench, config, bus and waits is present with
// probability 1/2, with a value drawn uniformly from those the surface
// holds (core.Measurement.Points gives 4- and 8-byte buses at wait
// states 0-3).
func query(r *rand.Rand, benches, configs []string) request {
	var terms []string
	v := url.Values{}
	for _, dim := range []struct {
		key    string
		values []string
	}{
		{"bench", benches},
		{"config", configs},
		{"bus", []string{"4", "8"}},
		{"waits", []string{"0", "1", "2", "3"}},
	} {
		if r.Intn(2) == 0 {
			val := dim.values[r.Intn(len(dim.values))]
			terms = append(terms, dim.key+"="+val)
			v.Set(dim.key, val)
		}
	}
	return request{kind: kindQuery, method: http.MethodGet, target: "/v1/query?" + v.Encode(),
		filter: strings.Join(terms, " ")}
}

// simdProc is one running simd.
type simdProc struct {
	cmd    *exec.Cmd
	base   string
	store  string
	stderr bytes.Buffer
	exited chan struct{}
	err    error // cmd.Wait's result, set before exited closes
}

// startSimd launches simd with two workers and a fresh store file on a
// free loopback port, and returns once /healthz answers 200 together
// with the seconds from exec to that answer. A port taken between
// choosing it and simd binding it fails the start, which is retried on
// a new port.
func startSimd(bin, dir string) (*simdProc, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, setup, err := trySimd(bin, dir, strconv.Itoa(attempt))
		if err == nil {
			return p, setup, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func trySimd(bin, dir, tag string) (*simdProc, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, 0, err
	}
	p := &simdProc{base: "http://" + addr, store: filepath.Join(dir, "simd-"+tag+".mcst"),
		exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-listen", addr, "-jobs", "2", "-quiet", "-store", p.store)
	p.cmd.Stderr = &p.stderr
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := poll.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("simd exited before serving: %v: %s", p.err, p.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			if _, err := p.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			return nil, 0, errors.New("simd did not answer /healthz within 30s")
		}
	}
}

// stop sends SIGTERM, waits for simd to drain and exit, and returns its
// peak resident set in MiB.
func (p *simdProc) stop() (float64, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-p.exited:
		default:
			return 0, err
		}
	}
	<-p.exited
	if p.err != nil {
		return 0, fmt.Errorf("simd: %v: %s", p.err, p.stderr.String())
	}
	return rssMB(p.cmd.ProcessState), nil
}

// rssMB is a finished process's peak resident set in MiB.
func rssMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// bodyCheck asserts that every repeat of a request gets the bytes the
// first answer had.
type bodyCheck struct {
	mu   sync.Mutex
	seen map[string][sha256.Size]byte
}

func (c *bodyCheck) same(r *request, body []byte) bool {
	k := r.method + " " + r.target + "\n" + string(r.body)
	h := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[k]; ok {
		return prev == h
	}
	c.seen[k] = h
	return true
}

// answer is one completed request.
type answer struct {
	ms   float64
	body []byte
	err  error
}

// drive sends reqs in order from closed-loop clients, each
// sending the next unsent request once its previous one is answered. A
// transport error, a status other than 200 or a repeated request whose
// body differs from the first answer is an error in its answer.
func drive(client *http.Client, base string, reqs []request, check *bodyCheck, keepBodies bool) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = send(client, base, &reqs[i], check, keepBodies)
			}
		}()
	}
	wg.Wait()
	return out
}

func send(client *http.Client, base string, r *request, check *bodyCheck, keepBody bool) answer {
	req, err := http.NewRequest(r.method, base+r.target, bytes.NewReader(r.body))
	if err != nil {
		return answer{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{ms: ms(time.Since(start))}
	switch {
	case err != nil:
		a.err = err
	case resp.StatusCode != http.StatusOK:
		a.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.target, resp.StatusCode, firstLine(string(body)))
	case !check.same(r, body):
		a.err = fmt.Errorf("%s %s: repeated request got a different body", r.method, r.target)
	}
	if keepBody {
		a.body = body
	}
	return a
}

// A serve session's load: two keep-alive clients (the host has two
// cores, and simd runs two workers), and cold batches of five points.
const (
	clients         = 2
	coldBatchPoints = 5
)

// sessionConfig sizes one serve session.
type sessionConfig struct {
	keys []servedKey
	warm int      // warm-phase requests
	exps []string // warm experiment points
}

func fullSession() sessionConfig {
	return sessionConfig{keys: servedKeys(), warm: 10000, exps: warmExperiments}
}

// coldOnly runs one more cold phase of a full session on a fresh simd,
// without the warm phase.
func coldOnly(bin, dir string, seed int64) (*passStats, error) {
	p, _, err := startSimd(bin, dir)
	if err != nil {
		return nil, err
	}
	cfg := fullSession()
	cfg.warm = 0
	st, _, err := serveSession(p, seed, cfg, newTracer("serve", pidOf("serve")), "", false)
	if _, stopErr := p.stop(); err == nil {
		err = stopErr
	}
	return st, err
}

// serveSession drives one simd through the cold phase (every key once,
// in seeded batches) and the warm phase (the seeded warm mix), timing
// both as spans under parent. With traced it also scrapes /metrics
// around the warm phase and replays the warm queries against simd's
// store file in process, returning the serve per-layer metrics.
func serveSession(p *simdProc, seed int64, cfg sessionConfig, t *tracer, parent string, traced bool) (*passStats, map[string]float64, error) {
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	check := &bodyCheck{seen: map[string][sha256.Size]byte{}}
	st := &passStats{}

	cold := coldBatches(seed, cfg.keys)
	s := t.start("serve.cold", parent)
	answers := drive(client, p.base, cold, check, true)
	st.ColdS = s.end()
	for i, a := range answers {
		st.Attempted++
		if a.err != nil {
			st.fail("cold: %v", a.err)
			continue
		}
		n, err := measuredPoints(a.body)
		if err != nil || n != cold[i].points {
			st.fail("cold batch %d: %d of %d points measured: %v", i, n, cold[i].points, err)
		}
		st.Points += n
	}

	var before string
	if traced {
		var err error
		if before, err = scrape(client, p.base); err != nil {
			return nil, nil, err
		}
	}
	warm := warmSequence(seed, cfg.warm, cfg.keys, cfg.exps)
	s = t.start("serve.warm", parent)
	answers = drive(client, p.base, warm, check, false)
	st.ResultS = s.end()
	st.WallS = st.ColdS + st.ResultS
	byKind := make([][]float64, numKinds)
	for i, a := range answers {
		st.Attempted++
		if a.err != nil {
			st.fail("warm: %v", a.err)
			continue
		}
		st.Results++
		st.Points += warm[i].points
		st.LatencyMS = append(st.LatencyMS, a.ms)
		byKind[warm[i].kind] = append(byKind[warm[i].kind], a.ms)
	}
	if !traced {
		return st, nil, nil
	}

	after, err := scrape(client, p.base)
	if err != nil {
		return nil, nil, err
	}
	layers, err := serveLayerValues(byKind, before, after)
	if err != nil {
		return nil, nil, err
	}
	fi, err := os.Stat(p.store)
	if err != nil {
		return nil, nil, err
	}
	layers["store.file_bytes"] = float64(fi.Size())
	s = t.start("store.query", parent)
	layers["store.query_ms"], err = replayQueries(p.store, warm)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	return st, layers, nil
}

// measuredPoints counts a batch response's measurement results,
// failing on any point that reports an error.
func measuredPoints(body []byte) (int, error) {
	var resp struct {
		Results []struct {
			Error   string          `json:"error"`
			Summary json.RawMessage `json:"summary"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	n := 0
	for _, r := range resp.Results {
		if r.Error != "" {
			return n, errors.New(r.Error)
		}
		if len(r.Summary) > 0 {
			n++
		}
	}
	return n, nil
}

func scrape(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return string(body), nil
}

// serveLayerValues derives the client-side per-class latencies and the
// server-side figures from two /metrics scrapes taken around the warm
// phase.
func serveLayerValues(byKind [][]float64, before, after string) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	if out["simd.batch_p50_ms"], _, err = percentile(byKind[kindBatch], 0.50); err != nil {
		return nil, fmt.Errorf("batch latency: %w", err)
	}
	if out["simd.batch_p99_ms"], _, err = percentile(byKind[kindBatch], 0.99); err != nil {
		return nil, fmt.Errorf("batch latency: %w", err)
	}
	out["simd.query_p50_ms"] = median(byKind[kindQuery])
	out["simd.experiment_p50_ms"] = median(byKind[kindExperiment])

	b, a := parseProm(before), parseProm(after)
	server := diffCounts(a.buckets("http_request_latency_us"), b.buckets("http_request_latency_us"))
	if out["simd.server_p50_us"], err = histQuantile(server, 0.50); err != nil {
		return nil, fmt.Errorf("server latency: %w", err)
	}
	if out["simd.server_p99_us"], err = histQuantile(server, 0.99); err != nil {
		return nil, fmt.Errorf("server latency: %w", err)
	}
	if out["jobs.queue_wait_p99_us"], err = histQuantile(a.buckets("jobs_queue_wait_us"), 0.99); err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	for name, series := range map[string]string{
		"jobs.cache_hits": "jobs_cache_hits", "jobs.cache_misses": "jobs_cache_misses", "jobs.coalesced": "jobs_coalesced",
	} {
		v, ok := a.series[series]
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", series)
		}
		out[name] = v
	}
	return out, nil
}

// histQuantile reports a bucket histogram's q-quantile, lowered as
// tailQuantile rules when too few observations lie beyond it.
func histQuantile(counts []float64, q float64) (float64, error) {
	used, err := tailQuantile(q, int(sum(counts)))
	if err != nil {
		return 0, err
	}
	return bucketQuantile(latencyBounds(), counts, used), nil
}

// promScrape is one parsed /metrics page: plain series by name and the
// cumulative bucket counts of each histogram by name and bound.
type promScrape struct {
	series map[string]float64
	cum    map[string]map[string]float64 // histogram → le label → cumulative count
}

func parseProm(text string) promScrape {
	s := promScrape{series: map[string]float64{}, cum: map[string]map[string]float64{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if hist, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			if s.cum[hist] == nil {
				s.cum[hist] = map[string]float64{}
			}
			s.cum[hist][strings.TrimSuffix(le, `"}`)] = v
			continue
		}
		s.series[name] = v
	}
	return s
}

func latencyBounds() []float64 {
	out := make([]float64, len(telemetry.LatencyBounds))
	for i, b := range telemetry.LatencyBounds {
		out[i] = float64(b)
	}
	return out
}

// buckets returns a latency histogram's per-bucket counts over
// telemetry.LatencyBounds plus the overflow bucket. The exposition
// lists only non-empty buckets, so a missing bound carries the
// cumulative count forward.
func (s promScrape) buckets(hist string) []float64 {
	cum := s.cum[hist]
	out := make([]float64, len(telemetry.LatencyBounds)+1)
	var prev float64
	for i, b := range telemetry.LatencyBounds {
		c, ok := cum[strconv.FormatInt(b, 10)]
		if !ok {
			c = prev
		}
		out[i] = c - prev
		prev = c
	}
	out[len(out)-1] = cum["+Inf"] - prev
	return out
}

func diffCounts(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// replayQueries answers every warm-phase query in process over the
// surface simd stored, returning the median store.Query time in ms.
func replayQueries(path string, warm []request) (float64, error) {
	pts, err := store.ReadFile(path)
	if err != nil {
		return 0, err
	}
	pts = store.Canon(pts)
	var lat []float64
	for _, r := range warm {
		if r.kind != kindQuery {
			continue
		}
		f, err := store.ParseFilter(r.filter)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := store.Query(pts, f); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	return median(lat), nil
}
