package jobs

import "sync"

// Cache is the content-addressed result store: completed job values by
// Key. It only ever holds successful results — failed jobs are not
// cached, so a transient failure can be retried by resubmitting.
//
// The cache is unbounded by design: its values are measurement results
// whose working set is the experiment grid (benchmarks × configurations),
// which is small and enumerable. Len is exported as a gauge so growth is
// visible before it is a problem.
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
