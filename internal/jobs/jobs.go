// Package jobs is the simulation service's execution substrate: a
// bounded worker pool with a content-addressed result cache.
//
// A Job is a closure plus an optional content Key (hash of everything
// that determines the result — for simulations, the program image and
// the memory-system configuration). Submitting a keyed job gives the
// scheduler three chances to avoid work:
//
//   - result cache hit: the job already ran; the returned Ticket is
//     complete immediately,
//   - coalescing: an identical job is queued or running; the caller
//     shares its Ticket,
//   - execution: the job is queued for a worker and its successful
//     result is cached for everyone after.
//
// Backpressure is explicit: the queue is bounded, TrySubmit fails fast
// with ErrOverloaded when it is full (HTTP handlers turn that into 503),
// while Submit blocks until space frees or the caller's context ends
// (library callers prefer waiting over failing). Shutdown drains
// gracefully: it stops admissions, waits for queued and running jobs,
// then releases the workers.
//
// Cancellation is cooperative: each job runs under a context derived
// from the scheduler's lifetime plus its default timeout, and the context
// is checked once more after dequeue, so queued work cancelled during a
// shutdown never starts. A job function that ignores its context runs
// to completion; the simulator's own MaxInstrs runaway guard bounds
// that completion for simulation jobs.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrOverloaded is returned by TrySubmit when the queue is full. Servers
// map it to 503 Service Unavailable.
var ErrOverloaded = errors.New("jobs: queue full")

// ErrClosed is returned by Submit and TrySubmit after Shutdown began.
var ErrClosed = errors.New("jobs: scheduler shut down")

// Job is one unit of work.
type Job struct {
	// Name labels the job in errors and traces.
	Name string
	// Key is the content address of the result; the zero Key disables
	// caching and coalescing for this job.
	Key Key
	// Fn computes the result. It must respect ctx for cancellation to
	// be effective and must not submit to the same scheduler (workers
	// waiting on workers can deadlock the pool).
	Fn func(ctx context.Context) (any, error)
}

// Config shapes a Scheduler.
type Config struct {
	// Workers is the pool size. 0 or negative selects inline mode:
	// jobs execute synchronously on the submitting goroutine, which
	// preserves strictly sequential behavior while keeping the cache
	// and metrics (this is what `repro -jobs 1` runs).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs (default 64).
	QueueDepth int
	// DefaultTimeout is the deadline (0 = none) of the context each job
	// runs with. The context is made when the job starts, so the
	// deadline never expires a queued job, and a job that ignores its
	// context runs on past it; every core simulation does today.
	DefaultTimeout time.Duration
	// Registry receives the scheduler metrics, named under the
	// "jobs." prefix (default: a private registry; pass
	// telemetry.Default() to expose them on /metrics).
	Registry *telemetry.Registry
}

// Scheduler runs jobs on a bounded worker pool with memoization.
type Scheduler struct {
	cfg    Config
	cache  *Cache
	m      *Metrics
	queue  chan *Ticket
	stop   chan struct{} // closed after drain: workers exit
	base   context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	inflight map[Key]*Ticket
	draining bool
	pending  sync.WaitGroup // accepted jobs not yet completed
	workers  sync.WaitGroup
}

// Ticket is a handle to a submitted job's eventual result.
type Ticket struct {
	job    Job
	done   chan struct{}
	val    any
	err    error
	cached bool

	// rid is the submitting request's ID (telemetry.RequestIDFrom on
	// the submit context); it lands in the job's execution span so
	// service traces connect requests to the work they caused. A
	// coalesced ticket keeps the first submitter's ID.
	rid string
	// enqueued stamps queue admission in pooled mode; the dequeueing
	// worker observes the wait into Metrics.QueueWaitUS.
	enqueued time.Time
}

func (t *Ticket) complete(v any, err error) {
	t.val, t.err = v, err
	close(t.done)
}

// Wait blocks until the job completes or ctx ends, returning the job's
// value and error. Waiting does not cancel the job; other holders of a
// coalesced ticket may still be waiting on it.
func (t *Ticket) Wait(ctx context.Context) (any, error) {
	select {
	case <-t.done:
		return t.val, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cached reports whether the result came straight from the result cache
// (only meaningful once the ticket is complete).
func (t *Ticket) Cached() bool { return t.cached }

// New returns a running scheduler.
func New(cfg Config) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := &Scheduler{
		cfg:      cfg,
		cache:    NewCache(),
		queue:    make(chan *Ticket, cfg.QueueDepth),
		stop:     make(chan struct{}),
		inflight: map[Key]*Ticket{},
	}
	s.base, s.cancel = context.WithCancel(context.Background())
	s.m = newMetrics(cfg.Registry, s.cache, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the scheduler's instrumentation.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// Cache returns the content-addressed result cache.
func (s *Scheduler) Cache() *Cache { return s.cache }

// Workers returns the configured pool size (0 = inline).
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// QueueDepth returns the current number of accepted-but-not-started jobs.
func (s *Scheduler) QueueDepth() int { return int(s.m.QueueDepth.Value()) }

// Submit enqueues j, blocking while the queue is full until space frees
// or ctx ends. The fast paths — cache hit and coalescing onto an
// in-flight twin — return a completed or shared Ticket without queueing.
func (s *Scheduler) Submit(ctx context.Context, j Job) (*Ticket, error) {
	return s.submit(ctx, j, true)
}

// TrySubmit is Submit without blocking: a full queue fails immediately
// with ErrOverloaded.
func (s *Scheduler) TrySubmit(ctx context.Context, j Job) (*Ticket, error) {
	return s.submit(ctx, j, false)
}

func (s *Scheduler) submit(ctx context.Context, j Job, wait bool) (*Ticket, error) {
	t := &Ticket{job: j, done: make(chan struct{}), rid: telemetry.RequestIDFrom(ctx)}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if !j.Key.IsZero() {
		if v, ok := s.cache.Get(j.Key); ok {
			s.mu.Unlock()
			s.m.Submitted.Inc()
			s.m.CacheHits.Inc()
			t.cached = true
			t.complete(v, nil)
			return t, nil
		}
		if in, ok := s.inflight[j.Key]; ok {
			s.mu.Unlock()
			s.m.Submitted.Inc()
			s.m.Coalesced.Inc()
			return in, nil
		}
		s.inflight[j.Key] = t
		s.m.CacheMisses.Inc()
	}
	// pending is incremented under the same lock that checks draining,
	// so Shutdown's pending.Wait covers every accepted job.
	s.pending.Add(1)
	s.mu.Unlock()
	s.m.Submitted.Inc()

	if s.cfg.Workers <= 0 {
		// Inline mode: run on the submitting goroutine.
		s.run(t)
		return t, nil
	}

	s.m.QueueDepth.Add(1)
	t.enqueued = time.Now()
	if wait {
		select {
		case s.queue <- t:
			return t, nil
		case <-ctx.Done():
			s.reject(t, ctx.Err())
			return nil, ctx.Err()
		}
	}
	select {
	case s.queue <- t:
		return t, nil
	default:
		s.m.Overloaded.Inc()
		s.reject(t, fmt.Errorf("%s: %w", j.Name, ErrOverloaded))
		return nil, ErrOverloaded
	}
}

// reject withdraws an accepted-but-unqueued job. The ticket is completed
// with err so that any submission that coalesced onto it between the
// admission lock and the failed enqueue observes the failure instead of
// waiting forever.
func (s *Scheduler) reject(t *Ticket, err error) {
	s.m.QueueDepth.Add(-1)
	if !t.job.Key.IsZero() {
		s.mu.Lock()
		delete(s.inflight, t.job.Key)
		s.mu.Unlock()
	}
	t.complete(nil, err)
	s.pending.Done()
}

func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		select {
		case t := <-s.queue:
			s.m.QueueDepth.Add(-1)
			s.run(t)
		case <-s.stop:
			return
		}
	}
}

// run executes one job: context assembly, panic containment, metrics,
// request-scoped span, cache fill, and ticket completion.
func (s *Scheduler) run(t *Ticket) {
	defer s.pending.Done()
	s.m.InFlight.Add(1)
	start := time.Now()
	if !t.enqueued.IsZero() {
		s.m.QueueWaitUS.Observe(start.Sub(t.enqueued).Microseconds())
	}
	attrs := []telemetry.Attr{telemetry.String("job", t.job.Name)}
	if t.rid != "" {
		attrs = append(attrs, telemetry.String("request_id", t.rid))
	}
	span := telemetry.StartSpan("jobs.run", attrs...)
	defer span.End()

	ctx := s.base
	cancel := context.CancelFunc(func() {})
	if to := s.cfg.DefaultTimeout; to > 0 {
		ctx, cancel = context.WithTimeout(ctx, to)
	}

	var val any
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobs: %s panicked: %v", t.job.Name, r)
			}
		}()
		// A job cancelled while queued (shutdown, expired deadline)
		// never starts.
		if err = ctx.Err(); err == nil {
			val, err = t.job.Fn(ctx)
		}
	}()
	cancel()

	s.m.LatencyUS.Observe(time.Since(start).Microseconds())
	s.m.InFlight.Add(-1)
	if err != nil {
		s.m.Failed.Inc()
	} else {
		s.m.Done.Inc()
		if !t.job.Key.IsZero() {
			s.cache.Put(t.job.Key, val)
		}
	}
	if !t.job.Key.IsZero() {
		s.mu.Lock()
		delete(s.inflight, t.job.Key)
		s.mu.Unlock()
	}
	t.complete(val, err)
}

// Shutdown drains the scheduler gracefully: it stops admitting jobs,
// waits for every accepted job to finish, then releases the workers. If
// ctx ends first, the scheduler context is cancelled — cooperative jobs
// stop early — and Shutdown still waits for the workers to come home
// before returning ctx's error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}

	drained := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // hurry cooperative jobs along
		<-drained
	}
	close(s.stop)
	s.workers.Wait()
	s.cancel()
	return err
}
