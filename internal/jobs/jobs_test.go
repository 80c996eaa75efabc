package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// do submits j and waits for its result.
func do(s *Scheduler, j Job) (any, error) {
	t, err := s.Submit(context.Background(), j)
	if err != nil {
		return nil, err
	}
	return t.Wait(context.Background())
}

func value(n int) func(context.Context) (any, error) {
	return func(context.Context) (any, error) { return n, nil }
}

func TestInlineSubmitExecutesAndCaches(t *testing.T) {
	s := New(Config{}) // Workers: 0 → inline
	k := NewHasher("test").String("point").Key()
	var calls atomic.Int64
	job := Job{Name: "p", Key: k, Fn: func(context.Context) (any, error) {
		calls.Add(1)
		return 42, nil
	}}
	for i := 0; i < 3; i++ {
		v, err := do(s, job)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do #%d = %v, %v", i, v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("Fn ran %d times, want 1 (cached)", calls.Load())
	}
	m := s.Metrics()
	if m.CacheHits.Value() != 2 || m.CacheMisses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", m.CacheHits.Value(), m.CacheMisses.Value())
	}
	if m.Done.Value() != 1 || m.Submitted.Value() != 3 {
		t.Fatalf("done=%d submitted=%d, want 1/3", m.Done.Value(), m.Submitted.Value())
	}
}

// TestCacheRangeWhileJobsFinish ranges over the result cache while a
// pool fills it; once the jobs are done, Range sees every result once.
func TestCacheRangeWhileJobsFinish(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	const n = 32
	var tks []*Ticket
	for i := 0; i < n; i++ {
		tk, err := s.Submit(context.Background(), Job{Name: "v", Key: NewHasher("range").Int(int64(i)).Key(), Fn: value(i)})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
		s.Cache().Range(func(any) {})
	}
	for _, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	seen := make([]int, n)
	s.Cache().Range(func(v any) { seen[v.(int)]++ })
	for i, c := range seen {
		if c != 1 {
			t.Errorf("value %d ranged %d times, want 1", i, c)
		}
	}
}

func TestUncachedJobsAlwaysRun(t *testing.T) {
	s := New(Config{})
	var calls atomic.Int64
	job := Job{Name: "u", Fn: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, nil
	}}
	for i := 0; i < 3; i++ {
		if _, err := do(s, job); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("Fn ran %d times, want 3 (zero key is uncacheable)", calls.Load())
	}
}

func TestPoolRunsConcurrently(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Shutdown(context.Background())
	// Four jobs that each block until all four are running proves the
	// pool executes in parallel (a serial pool would deadlock; the
	// timeout turns that into a test failure).
	var wg sync.WaitGroup
	wg.Add(4)
	var tks []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), Job{Name: "barrier", Fn: func(ctx context.Context) (any, error) {
			wg.Done()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
				return nil, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("barrier never filled")
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoalescing(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	k := NewHasher("test").String("slow").Key()
	release := make(chan struct{})
	var calls atomic.Int64
	job := Job{Name: "slow", Key: k, Fn: func(context.Context) (any, error) {
		calls.Add(1)
		<-release
		return "done", nil
	}}
	t1, err := s.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to start so the second submit coalesces rather
	// than winning a queue race.
	for s.Metrics().InFlight.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	t2, err := s.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("coalesced submit returned a distinct ticket")
	}
	close(release)
	if v, err := t2.Wait(context.Background()); err != nil || v.(string) != "done" {
		t.Fatalf("Wait = %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("Fn ran %d times, want 1", calls.Load())
	}
	if s.Metrics().Coalesced.Value() != 1 {
		t.Fatalf("coalesced=%d, want 1", s.Metrics().Coalesced.Value())
	}
}

func TestTrySubmitOverload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	release := make(chan struct{})
	block := Job{Name: "block", Fn: func(context.Context) (any, error) {
		<-release
		return nil, nil
	}}
	// First job occupies the worker, second fills the queue.
	t1, err := s.TrySubmit(context.Background(), block)
	if err != nil {
		t.Fatal(err)
	}
	for s.Metrics().InFlight.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	t2, err := s.TrySubmit(context.Background(), block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrySubmit(context.Background(), Job{Name: "x", Fn: value(0)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("TrySubmit on full queue = %v, want ErrOverloaded", err)
	}
	if s.Metrics().Overloaded.Value() != 1 {
		t.Fatalf("overloaded=%d, want 1", s.Metrics().Overloaded.Value())
	}
	close(release)
	for _, tk := range []*Ticket{t1, t2} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRejectedKeyedJobFailsCoalescedWaiters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	release := make(chan struct{})
	defer close(release)
	block := Job{Name: "block", Fn: func(context.Context) (any, error) {
		<-release
		return nil, nil
	}}
	if _, err := s.TrySubmit(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	for s.Metrics().InFlight.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.TrySubmit(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	// A keyed job rejected for overload must not leave a zombie
	// in-flight entry behind: a later submit of the same key runs.
	k := NewHasher("test").String("kjob").Key()
	if _, err := s.TrySubmit(context.Background(), Job{Name: "k", Key: k, Fn: value(1)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	s.mu.Lock()
	_, zombie := s.inflight[k]
	s.mu.Unlock()
	if zombie {
		t.Fatal("rejected job left an in-flight entry")
	}
}

func TestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: 10 * time.Millisecond})
	defer s.Shutdown(context.Background())
	v, err := do(s, Job{Name: "sleepy", Fn: func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return "overslept", nil
		}
	}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, %v; want deadline exceeded", v, err)
	}
	if s.Metrics().Failed.Value() != 1 {
		t.Fatalf("failed=%d, want 1", s.Metrics().Failed.Value())
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	s := New(Config{})
	k := NewHasher("test").String("flaky").Key()
	var calls atomic.Int64
	job := Job{Name: "flaky", Key: k, Fn: func(context.Context) (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}
	if _, err := do(s, job); err == nil {
		t.Fatal("first Do should fail")
	}
	v, err := do(s, job)
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry = %v, %v; want ok", v, err)
	}
}

func TestPanicContained(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	_, err := do(s, Job{Name: "boom", Fn: func(context.Context) (any, error) {
		panic("kaboom")
	}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Do after panic = %v, want contained panic error", err)
	}
	// The worker survives.
	if v, err := do(s, Job{Name: "after", Fn: value(7)}); err != nil || v.(int) != 7 {
		t.Fatalf("Do after recovery = %v, %v", v, err)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	var done atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(context.Background(), Job{Name: "work", Fn: func(context.Context) (any, error) {
			time.Sleep(2 * time.Millisecond)
			done.Add(1)
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 8 {
		t.Fatalf("drained %d jobs, want 8", done.Load())
	}
	if _, err := s.Submit(context.Background(), Job{Name: "late", Fn: value(0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrClosed", err)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	release := make(chan struct{})
	defer close(release)
	tk, err := s.Submit(context.Background(), Job{Name: "slow", Fn: func(context.Context) (any, error) {
		<-release
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
}

func TestKeyDomainsAndFields(t *testing.T) {
	a := NewHasher("measure").String("x").Key()
	b := NewHasher("sweep").String("x").Key()
	if a == b {
		t.Fatal("different domains produced the same key")
	}
	// Length prefixing: ("ab","c") must differ from ("a","bc").
	if NewHasher("d").String("ab").String("c").Key() == NewHasher("d").String("a").String("bc").Key() {
		t.Fatal("field boundaries are ambiguous")
	}
	if (Key{}).IsZero() != true || a.IsZero() {
		t.Fatal("IsZero misclassifies")
	}
	if len(a.String()) != 64 || len(a.Short()) != 16 {
		t.Fatalf("hex forms: %q %q", a.String(), a.Short())
	}
}

func TestMetricsAppearInProm(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 0, Registry: reg})
	k := NewHasher("test").String("m").Key()
	job := Job{Name: "m", Key: k, Fn: value(1)}
	for i := 0; i < 2; i++ {
		if _, err := do(s, job); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"jobs_queue_depth 0",
		"jobs_inflight 0",
		"jobs_submitted 2",
		"jobs_done 1",
		"jobs_cache_hits 1",
		"jobs_cache_misses 1",
		"jobs_cache_entries 1",
		"# TYPE jobs_latency_us histogram",
		"# TYPE jobs_latency_us_p50 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q\n%s", want, out)
		}
	}
}
