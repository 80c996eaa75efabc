package jobs

import "sync"

// Cache is the content-addressed result store: completed job values by
// Key. It only ever holds successful results — failed jobs are not
// cached, so a transient failure can be retried by resubmitting.
//
// The cache has no bound of its own. The paper's experiment grid
// (benchmarks × configurations) is small and enumerable; a sweep, whose
// corpus is not, removes each program's results with Delete once it
// has drained them; a service keeps every distinct point it was asked
// for. Len is exported as a gauge so growth is visible before it is a
// problem.
type Cache struct {
	mu sync.RWMutex
	m  map[Key]any
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: map[Key]any{}} }

// Get returns the cached value for k.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// Put stores v under k, overwriting any previous value.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

// Range calls fn with every value cached when it is called, in no
// particular order. fn runs outside the cache's lock.
func (c *Cache) Range(fn func(v any)) {
	c.mu.RLock()
	vs := make([]any, 0, len(c.m))
	for _, v := range c.m { //detlint:ignore rangemap callers impose their own order
		vs = append(vs, v)
	}
	c.mu.RUnlock()
	for _, v := range vs {
		fn(v)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return n
}

// Delete drops the result t completed with. Call it after t completes:
// a job still running fills the cache when it finishes.
func (c *Cache) Delete(t *Ticket) {
	c.mu.Lock()
	delete(c.m, t.job.Key)
	c.mu.Unlock()
}
