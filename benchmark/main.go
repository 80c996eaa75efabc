// Command benchmark measures the lab as its users see it, on three
// workloads:
//
//	paper  all registered experiments on a fresh sequential lab, as
//	       `repro -run all -json` runs them (child process per pass)
//	sweep  a seeded synthetic-corpus sweep on a two-worker lab, as
//	       `repro -sweep` runs it (child process per pass)
//	serve  a simd process driven over loopback HTTP: a cold phase that
//	       measures every point once, then a seeded warm request mix
//
// Usage, from the repository root (benchmark/run.sh builds the harness
// and simd first):
//
//	bash benchmark/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) repeats passes of the workload while the
// next is expected to fit in --seconds (at least one) and prints the
// end-to-end metrics as medians over its passes. A traced run
// (--trace 1) replays all three workloads one layer at a time, prints
// every per-layer metric and writes the spans to <trace-dir>/trace.json.
// The last line of standard output is the JSON result; the exit status
// is non-zero when any output check failed. README.md documents the
// metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

const (
	// setupSamples is how many set-ups a run measures at least; setup_s
	// is their median. One set-up takes 2-5 ms, mostly process start, so
	// with 15 samples the median still moved by 20-30% from run to run.
	// 101 cost under a second; 201 steadied the median no further, since
	// what remains is the host's drift between runs.
	setupSamples = 101
	// coldSamples is how many serve cold phases a run measures at least;
	// cold_s is their median. A cold phase lasts about 3 s, and a single
	// one varied by 20% (interquartile range over median) from run to
	// run, against 5% for the 27 s warm phase.
	coldSamples = 3
	// sweepCount is the sweep workload's programs per corpus class;
	// a traced run replays tracedSweepCount, which keeps the whole
	// traced run under two minutes.
	sweepCount       = 160
	tracedSweepCount = 40
)

var workloads = []string{"paper", "sweep", "serve"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceDir string
	simd     string
	work     string
	testdata string
	update   bool
	child    string
	replay   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, sweep or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (sweep corpus, serve request order and mix; paper has fixed inputs)")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement budget: passes repeat while the next is expected to fit")
	flag.IntVar(&o.trace, "trace", 0, "1 replays every workload layer by layer and prints the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for trace.json of a traced run (default <work>/trace)")
	flag.StringVar(&o.simd, "simd", "", "simd binary the serve workload starts")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory; each run uses and removes a subdirectory")
	flag.StringVar(&o.testdata, "testdata", "testdata", "directory holding paper.sha256")
	flag.BoolVar(&o.update, "update", false, "rewrite testdata/paper.sha256 from this run's paper outputs instead of checking them")
	flag.StringVar(&o.child, "child", "", "internal: run one pass of this workload as a child process")
	flag.BoolVar(&o.replay, "replay", false, "internal: the child also replays its pass layer by layer")
	flag.Parse()

	if o.child != "" {
		if err := childMain(o); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s child: %v\n", o.child, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || o.workload == w
	}
	switch {
	case !known:
		return nil, fmt.Errorf("--workload must be one of %s", strings.Join(workloads, ", "))
	case o.seconds < 1:
		return nil, errors.New("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return nil, errors.New("--trace must be 0 or 1")
	case o.simd == "" && (o.workload == "serve" || o.trace == 1):
		return nil, errors.New("--simd is required to serve (benchmark/run.sh builds it)")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace == 1 {
		return runTraced(o, dir)
	}
	return runWorkload(o, dir)
}

// runWorkload measures passes of one workload, untraced, and reports
// the end-to-end metrics as medians over them.
func runWorkload(o options, dir string) (*result, error) {
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes []*passStats
	var rss, setups, durs []float64
	for {
		began := time.Now()
		st, setup, mb, err := pass(o, filepath.Join(dir, "pass-"+strconv.Itoa(len(passes))))
		if err != nil {
			return nil, err
		}
		passes = append(passes, st)
		setups = append(setups, setup)
		rss = append(rss, mb)
		durs = append(durs, time.Since(began).Seconds())
		if time.Since(start).Seconds()+median(durs) > budget.Seconds() {
			break
		}
	}
	for o.workload == "serve" && len(passes) < coldSamples {
		st, err := coldOnly(o.simd, filepath.Join(dir, "cold-"+strconv.Itoa(len(passes))), o.seed)
		if err != nil {
			return nil, err
		}
		passes = append(passes, st)
	}
	for len(setups) < setupSamples {
		s, err := setupOnly(o, filepath.Join(dir, "setup-"+strconv.Itoa(len(setups))))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	attempted, failed := 0, 0
	for _, p := range passes {
		for _, e := range p.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", o.workload, e)
		}
		attempted += p.Attempted
		failed += p.Failed
	}
	values, used, err := endToEndValues(passes, setups, rss)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d pass(es), %d latency sample(s) in the first, latency_p99_ms at q=%g, %d set-ups\n",
		o.workload, o.seed, len(passes), len(passes[0].LatencyMS), used, len(setups))
	return newResult(endToEnd, values, attempted, failed)
}

// endToEndValues derives the end-to-end metrics from a run's passes,
// set-up times and peak RSS samples, each as the median over the run.
// It also returns the quantile latency_p99_ms reports (see
// tailQuantile); a batch pass is one request, whose latency stands for
// both percentiles. A pass without results, such as a cold-only serve
// session, counts toward cold_s alone.
func endToEndValues(passes []*passStats, setups, rss []float64) (map[string]float64, float64, error) {
	var wall, pps, cold, rps, p50, p99 []float64
	used := 1.0
	for _, p := range passes {
		cold = append(cold, p.ColdS)
		if p.Results == 0 {
			continue
		}
		wall = append(wall, p.WallS)
		pps = append(pps, float64(p.Points)/p.WallS)
		rps = append(rps, float64(p.Results)/p.ResultS)
		if len(p.LatencyMS) == 1 {
			p50 = append(p50, p.LatencyMS[0])
			p99 = append(p99, p.LatencyMS[0])
			continue
		}
		v, _, err := percentile(p.LatencyMS, 0.50)
		if err != nil {
			return nil, 0, fmt.Errorf("latency: %w", err)
		}
		p50 = append(p50, v)
		if v, used, err = percentile(p.LatencyMS, 0.99); err != nil {
			return nil, 0, fmt.Errorf("latency: %w", err)
		}
		p99 = append(p99, v)
	}
	if len(wall) == 0 {
		return nil, 0, errors.New("no pass produced a result")
	}
	return map[string]float64{
		"wall_s":         median(wall),
		"points_per_s":   median(pps),
		"cold_s":         median(cold),
		"req_per_s":      median(rps),
		"latency_p50_ms": median(p50),
		"latency_p99_ms": median(p99),
		"peak_rss_mb":    median(rss),
		"setup_s":        median(setups),
	}, used, nil
}

// pass runs one pass of o.workload in dir and returns its stats, the
// seconds its set-up took and the peak RSS (MiB) of the process that
// did the work.
func pass(o options, dir string) (*passStats, float64, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if o.workload == "serve" {
		p, setup, err := startSimd(o.simd, dir)
		if err != nil {
			return nil, 0, 0, err
		}
		t := newTracer("serve", pidOf("serve"))
		st, _, err := serveSession(p, o.seed, fullSession(), t, "", false)
		mb, stopErr := p.stop()
		if err == nil {
			err = stopErr
		}
		return st, setup, mb, err
	}
	c, setup, err := spawnChild(o, o.workload, dir, false)
	if err != nil {
		return nil, 0, 0, err
	}
	out, mb, err := c.run()
	if err != nil {
		return nil, 0, 0, err
	}
	return out.Pass, setup, mb, nil
}

// setupOnly measures one more set-up of o.workload without running a
// pass.
func setupOnly(o options, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if o.workload == "serve" {
		p, setup, err := startSimd(o.simd, dir)
		if err != nil {
			return 0, err
		}
		_, err = p.stop()
		return setup, err
	}
	c, setup, err := spawnChild(o, o.workload, dir, false)
	if err != nil {
		return 0, err
	}
	return setup, c.dismiss()
}

// runTraced replays all three workloads layer by layer and reports every
// per-layer metric, writing the spans as one Chrome trace.
func runTraced(o options, dir string) (*result, error) {
	base := time.Now()
	values := map[string]float64{}
	var events []telemetry.Event
	attempted, failed := 0, 0
	add := func(workload string, st *passStats, layers map[string]float64) {
		for _, e := range st.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", workload, e)
		}
		attempted += st.Attempted
		failed += st.Failed
		for k, v := range layers {
			values[workload+"."+k] = v
		}
	}
	for _, w := range []string{"paper", "sweep"} {
		wdir := filepath.Join(dir, w)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return nil, err
		}
		c, _, err := spawnChild(o, w, wdir, true)
		if err != nil {
			return nil, err
		}
		out, _, err := c.run()
		if err != nil {
			return nil, err
		}
		add(w, out.Pass, out.Layers)
		events = append(events, shift(out.Events, time.Unix(0, out.EpochNS), base)...)
	}

	sdir := filepath.Join(dir, "serve")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return nil, err
	}
	p, _, err := startSimd(o.simd, sdir)
	if err != nil {
		return nil, err
	}
	t := newTracer("serve", pidOf("serve"))
	root := t.start("serve.session", "")
	st, layers, err := serveSession(p, o.seed, fullSession(), t, root.id, true)
	root.end()
	if _, stopErr := p.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	add("serve", st, layers)
	events = append(events, shift(t.events, t.epoch, base)...)

	traceDir := o.traceDir
	if traceDir == "" {
		traceDir = filepath.Join(o.work, "trace")
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	if err := writeTrace(traceDir, events); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: trace written to %s\n", filepath.Join(traceDir, "trace.json"))
	return newResult(perLayer(), values, attempted, failed)
}

func pidOf(workload string) int {
	for i, w := range workloads {
		if w == workload {
			return i + 1
		}
	}
	return 0
}

// childOutput is what a child process reports for its pass.
type childOutput struct {
	Pass    *passStats         `json:"pass"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Events  []telemetry.Event  `json:"events,omitempty"`
	EpochNS int64              `json:"epoch_ns"`
}

// child is a harness process running one pass. It prints "ready" once
// set up, starts the pass when it reads "go", and exits without one
// when its standard input closes first.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// spawnChild starts a child for workload working in dir and returns once
// it is ready, with the seconds from exec to ready: its set-up time.
func spawnChild(o options, workload, dir string, replay bool) (*child, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", workload, "-seed", strconv.FormatInt(o.seed, 10), "-work", dir,
		"-testdata", o.testdata}
	if o.update {
		args = append(args, "-update")
	}
	if replay {
		args = append(args, "-replay")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	line, err := c.stdout.ReadString('\n')
	setup := time.Since(start).Seconds()
	if err != nil || line != "ready\n" {
		stdin.Close()
		werr := cmd.Wait()
		return nil, 0, fmt.Errorf("%s child did not get ready (%q): %v %v", workload, line, err, werr)
	}
	return c, setup, nil
}

// run starts the pass, reads the child's report and waits for it to
// exit, returning the report and the child's peak RSS in MiB.
func (c *child) run() (*childOutput, float64, error) {
	_, err := io.WriteString(c.stdin, "go\n")
	if cerr := c.stdin.Close(); err == nil {
		err = cerr
	}
	var out childOutput
	if err == nil {
		err = json.NewDecoder(c.stdout).Decode(&out)
	}
	if werr := c.cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("child pass: %w", err)
	}
	return &out, rssMB(c.cmd.ProcessState), nil
}

// dismiss ends a child that was only started to time its set-up.
func (c *child) dismiss() error {
	if err := c.stdin.Close(); err != nil {
		return err
	}
	return c.cmd.Wait()
}

// childMain is a child process: it sets up the workload's lab, reports
// ready, and on "go" runs one pass (and, with -replay, the layer replay)
// in -work, printing a childOutput.
func childMain(o options) error {
	var lab *core.Lab
	switch o.child {
	case "paper":
		lab = core.NewLab()
	case "sweep":
		lab = core.NewParallelLab(2)
	default:
		return fmt.Errorf("no child workload %q", o.child)
	}
	if _, err := io.WriteString(os.Stdout, "ready\n"); err != nil {
		return err
	}
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err == io.EOF {
		return nil
	}
	if err != nil || line != "go\n" {
		return fmt.Errorf("expected go, read %q: %v", line, err)
	}

	t := newTracer(o.child, pidOf(o.child))
	out := &childOutput{EpochNS: t.epoch.UnixNano()}
	root := t.start(o.child+".pass", "")
	switch o.child {
	case "paper":
		exps := experiments.All()
		st, digests, err := paperPass(lab, exps, o.work)
		if err != nil {
			return err
		}
		root.end()
		if err := checkDigests(st, digests, filepath.Join(o.testdata, "paper.sha256"), o.update); err != nil {
			return err
		}
		out.Pass = st
		if o.replay {
			r := t.start("paper.replay", "")
			out.Layers, err = replayPaper(t, r.id, lab, exps, fullPaperPlan(), digests, st.WallS, o.work)
			r.end()
		}
		if err != nil {
			return err
		}
	case "sweep":
		count := sweepCount
		if o.replay {
			count = tracedSweepCount
		}
		spec := sweepSpec(o.seed, count)
		st, path, err := sweepPass(lab, spec, o.work)
		if err != nil {
			return err
		}
		root.end()
		out.Pass = st
		if o.replay {
			r := t.start("sweep.replay", "")
			out.Layers, err = replaySweep(t, r.id, spec, path, st.WallS, o.work)
			r.end()
		}
		if err != nil {
			return err
		}
	}
	out.Events = t.events
	return json.NewEncoder(os.Stdout).Encode(out)
}
