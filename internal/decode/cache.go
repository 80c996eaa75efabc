package decode

import (
	"sync"

	"repro/internal/prog"
)

// The shared table cache: content-addressed, bounded, with CLOCK-style
// second-chance eviction (no per-hit list manipulation, so concurrent
// lookups only take the mutex briefly). Capacity is generous for the
// seed suite (90 images) while bounding memory when synthetic sweeps
// stream thousands of generated programs through the simulator —
// eviction only costs re-decoding, never correctness.
const cacheCap = 256

type entry struct {
	k    key
	t    *Text
	used bool
}

var cache = struct {
	sync.Mutex
	m     map[key]int // key → slot index
	slots []entry
	hand  int
}{m: map[key]int{}}

// For returns the shared predecoded table for an image, decoding it on
// first sight. Distinct *prog.Image values with identical text and
// decode rules share one table; the returned Text is immutable.
func For(img *prog.Image) *Text {
	k := keyOf(img)
	cache.Lock()
	if i, ok := cache.m[k]; ok {
		cache.slots[i].used = true
		t := cache.slots[i].t
		cache.Unlock()
		return t
	}
	cache.Unlock()

	// Decode outside the lock: concurrent first sights of one image may
	// both decode, but only one result is kept (tables are equivalent).
	t := Decode(img)

	cache.Lock()
	defer cache.Unlock()
	if i, ok := cache.m[k]; ok {
		return cache.slots[i].t
	}
	if len(cache.slots) < cacheCap {
		cache.m[k] = len(cache.slots)
		cache.slots = append(cache.slots, entry{k: k, t: t, used: true})
		return t
	}
	for {
		s := &cache.slots[cache.hand]
		if s.used {
			s.used = false
			cache.hand = (cache.hand + 1) % cacheCap
			continue
		}
		delete(cache.m, s.k)
		*s = entry{k: k, t: t, used: true}
		cache.m[k] = cache.hand
		cache.hand = (cache.hand + 1) % cacheCap
		return t
	}
}
