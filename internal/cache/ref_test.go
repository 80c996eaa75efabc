package cache

// The cache kernel as it was before the flat layout: one []refLine per
// set, two []bool per line, integer division to locate an address. It
// is the reference model TestFlatMatchesReference drives next to the
// flat kernel. Only the type and constructor names differ from the
// original, and MustNew and Config, which the test does not need, are
// left out.

type refLine struct {
	tag   uint32
	valid []bool // per sub-block
	dirty []bool
	inUse bool
	lru   int64
}

// refCache is one reference cache.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	subPer   uint32 // sub-blocks per block
	setCount uint32
	tick     int64
	Stats    Stats
}

// newRef builds a reference cache; the configuration must validate.
func newRef(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setCount := cfg.Size / cfg.BlockBytes / cfg.Assoc
	c := &refCache{
		cfg:      cfg,
		subPer:   cfg.BlockBytes / cfg.SubBytes,
		setCount: setCount,
		sets:     make([][]refLine, setCount),
	}
	for i := range c.sets {
		ways := make([]refLine, cfg.Assoc)
		for w := range ways {
			ways[w].valid = make([]bool, c.subPer)
			ways[w].dirty = make([]bool, c.subPer)
		}
		c.sets[i] = ways
	}
	return c, nil
}

func (c *refCache) locate(addr uint32) (set uint32, tag uint32, sub uint32) {
	block := addr / c.cfg.BlockBytes
	return block % c.setCount, block / c.setCount, addr % c.cfg.BlockBytes / c.cfg.SubBytes
}

// findWay returns the way holding the tag, or -1.
func (c *refCache) findWay(set, tag uint32) int {
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.inUse && ln.tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way to replace in a set (LRU; trivially way 0 when
// direct-mapped).
func (c *refCache) victim(set uint32) int {
	best, bestLRU := 0, int64(1)<<62
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if !ln.inUse {
			return w
		}
		if ln.lru < bestLRU {
			best, bestLRU = w, ln.lru
		}
	}
	return best
}

// evict writes back dirty sub-blocks of a line about to be replaced.
func (c *refCache) evict(ln *refLine) {
	if c.cfg.WriteThrough {
		return
	}
	for i, d := range ln.dirty {
		if d {
			c.Stats.MemWriteWords += int64(c.cfg.SubBytes / 4)
			ln.dirty[i] = false
		}
	}
}

// Read simulates a read access (instruction fetch or data load) and
// reports whether it missed.
func (c *refCache) Read(addr uint32) bool {
	c.tick++
	c.Stats.Reads++
	set, tag, sub := c.locate(addr)
	w := c.findWay(set, tag)
	if w >= 0 && c.sets[set][w].valid[sub] {
		c.sets[set][w].lru = c.tick
		return false
	}
	c.Stats.ReadMisses++
	ln := c.fill(set, tag, w)
	ln.valid[sub] = true
	c.Stats.MemReadWords += int64(c.cfg.SubBytes / 4)
	if !c.cfg.NoPrefetch {
		// Wrap-around prefetch: also fetch the next sub-block, wrapping
		// within the block.
		nxt := (sub + 1) % c.subPer
		if !ln.valid[nxt] {
			ln.valid[nxt] = true
			c.Stats.MemReadWords += int64(c.cfg.SubBytes / 4)
		}
	}
	return true
}

// Write simulates a write access and reports whether it missed.
func (c *refCache) Write(addr uint32) bool {
	c.tick++
	c.Stats.Writes++
	set, tag, sub := c.locate(addr)
	w := c.findWay(set, tag)
	hit := w >= 0 && c.sets[set][w].valid[sub]
	if hit {
		ln := &c.sets[set][w]
		ln.lru = c.tick
		if c.cfg.WriteThrough {
			c.Stats.MemWriteWords += int64(c.cfg.SubBytes / 4)
		} else {
			ln.dirty[sub] = true
		}
		return false
	}
	c.Stats.WriteMisses++
	if c.cfg.NoWriteAllocate {
		c.Stats.MemWriteWords += int64(c.cfg.SubBytes / 4)
		return true
	}
	ln := c.fill(set, tag, w)
	ln.valid[sub] = true
	c.Stats.MemReadWords += int64(c.cfg.SubBytes / 4) // no prefetch on write
	if c.cfg.WriteThrough {
		c.Stats.MemWriteWords += int64(c.cfg.SubBytes / 4)
	} else {
		ln.dirty[sub] = true
	}
	return true
}

// fill ensures a line for (set, tag) exists and returns it; w is the way
// holding the tag already, or -1 to allocate.
func (c *refCache) fill(set, tag uint32, w int) *refLine {
	if w < 0 {
		w = c.victim(set)
		ln := &c.sets[set][w]
		c.evict(ln)
		ln.tag = tag
		ln.inUse = true
		for i := range ln.valid {
			ln.valid[i] = false
		}
	}
	ln := &c.sets[set][w]
	ln.lru = c.tick
	return ln
}

// Flush invalidates everything (writing back dirty data) — used between
// measurement phases.
func (c *refCache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			c.evict(ln)
			ln.inUse = false
			for i := range ln.valid {
				ln.valid[i] = false
			}
		}
	}
}
