// Package cache implements the dinero-style cache simulator the paper
// uses for its Section 4.1 experiments: direct-mapped (optionally
// set-associative) caches organized in blocks of sub-blocks, with
// wrap-around prefetch of the following sub-block on read misses and no
// prefetch on writes. Validity is tracked per sub-block; a tag match with
// an invalid sub-block is still a miss (a sub-block fetch), as in dinero's
// sub-block mode.
//
// The kernel is flat, because a cache sweep probes several caches per
// simulated instruction: each cache keeps its tags, LRU stamps and
// per-sub-block valid and dirty bits in four contiguous arrays indexed
// by line, and locates an address with shifts and masks (every
// geometry is a power of two). TestFlatMatchesReference holds the
// kernel to the original line-per-struct model, access by access.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
)

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size uint32
	// BlockBytes is the block (line) size: the tag granularity.
	BlockBytes uint32
	// SubBytes is the sub-block (transfer) size.
	SubBytes uint32
	// Assoc is the set associativity; the paper uses 1 (direct-mapped).
	Assoc uint32
	// WritePolicy selects WriteBack (default, dinero's default) or
	// WriteThrough accounting for write traffic.
	WriteThrough bool
	// NoWriteAllocate, when set, sends write misses straight to memory
	// without filling the line.
	NoWriteAllocate bool
	// NoPrefetch disables the wrap-around read prefetch.
	NoPrefetch bool
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	switch {
	case c.Size == 0 || c.BlockBytes == 0 || c.SubBytes == 0:
		return fmt.Errorf("cache: zero geometry %+v", c)
	case c.BlockBytes%c.SubBytes != 0:
		return fmt.Errorf("cache: block %d not a multiple of sub-block %d", c.BlockBytes, c.SubBytes)
	case c.Size%c.BlockBytes != 0:
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.Size, c.BlockBytes)
	case c.Assoc == 0:
		return fmt.Errorf("cache: zero associativity")
	case c.Size/c.BlockBytes%c.Assoc != 0:
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", c.Size/c.BlockBytes, c.Assoc)
	case !pow2(c.Size) || !pow2(c.BlockBytes) || !pow2(c.SubBytes):
		return fmt.Errorf("cache: geometry must be powers of two: %+v", c)
	}
	return nil
}

func pow2(v uint32) bool { return v != 0 && v&(v-1) == 0 }

// Stats accumulates cache activity.
type Stats struct {
	Reads       int64 // read accesses (instruction fetches or data reads)
	Writes      int64
	ReadMisses  int64
	WriteMisses int64
	// MemReadWords / MemWriteWords count 32-bit words moved between the
	// cache and memory (fills, prefetches, write-backs/throughs).
	MemReadWords  int64
	MemWriteWords int64
}

// Misses returns total misses.
func (s *Stats) Misses() int64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Reads+s.Writes == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Reads+s.Writes)
}

// ReadMissRate returns read misses per read access.
func (s *Stats) ReadMissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.Reads)
}

// WriteMissRate returns write misses per write access.
func (s *Stats) WriteMissRate() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.WriteMisses) / float64(s.Writes)
}

// Register publishes the hit/miss/traffic counters as live gauges under
// prefix; the simulation fields stay the single source of truth and the
// probe hot path is untouched.
func (s *Stats) Register(reg *telemetry.Registry, prefix string) {
	for _, f := range []struct {
		name string
		v    *int64
	}{
		{"reads", &s.Reads},
		{"writes", &s.Writes},
		{"read_misses", &s.ReadMisses},
		{"write_misses", &s.WriteMisses},
		{"mem_read_words", &s.MemReadWords},
		{"mem_write_words", &s.MemWriteWords},
	} {
		v := f.v
		reg.RegisterFunc(prefix+f.name, func() int64 { return *v })
	}
	reg.RegisterFunc(prefix+"misses", s.Misses)
}

// Cache is one simulated cache.
//
// Its state is flat: line l (way w of set s is line s*Assoc+w) owns
// tags[l], lru[l], and words consecutive bitset words of valid and of
// dirty starting at l*words, one bit per sub-block. tags[l] is the
// line's tag with the inUse bit set, or 0 for a line not in use, so a
// lookup is one compare; lru[l] is the tick of the line's last access.
// Every geometry is a validated power of two (and so is the set count,
// since the associativity divides the block count), so an address
// splits into sub-block, set and tag with shifts and masks.
type Cache struct {
	cfg Config

	// Shift counts are at most 31 (Size is a uint32 power of two); the
	// shifts mask them with &31 so each compiles to one instruction.
	subShift  uint32 // log2(SubBytes)
	subMask   uint32 // sub-blocks per block - 1
	setShift  uint32 // log2(BlockBytes)
	setMask   uint32 // sets - 1
	tagShift  uint32 // log2(BlockBytes * sets) = log2(Size / Assoc)
	assoc     int
	words     int   // bitset words per line
	xferWords int64 // 32-bit words moved per sub-block transfer

	tags  []uint64
	lru   []int64
	valid []uint64
	dirty []uint64

	tick  int64
	Stats Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Size / cfg.BlockBytes / cfg.Assoc
	subPer := cfg.BlockBytes / cfg.SubBytes
	lines := int(sets * cfg.Assoc)
	words := int(subPer+63) / 64
	return &Cache{
		cfg:       cfg,
		subShift:  log2(cfg.SubBytes),
		subMask:   subPer - 1,
		setShift:  log2(cfg.BlockBytes),
		setMask:   sets - 1,
		tagShift:  log2(cfg.BlockBytes) + log2(sets),
		assoc:     int(cfg.Assoc),
		words:     words,
		xferWords: int64(cfg.SubBytes / 4),
		tags:      make([]uint64, lines),
		lru:       make([]int64, lines),
		valid:     make([]uint64, lines*words),
		dirty:     make([]uint64, lines*words),
	}, nil
}

// inUse marks a tags entry as holding a line.
const inUse = 1 << 32

// log2 returns the exponent of a power of two.
func log2(v uint32) uint32 { return uint32(bits.TrailingZeros32(v)) }

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// locate splits an address into its set, its tags entry (the tag with
// the inUse bit) and its sub-block within the block.
func (c *Cache) locate(addr uint32) (set uint32, key uint64, sub uint32) {
	return addr >> (c.setShift & 31) & c.setMask, uint64(addr>>(c.tagShift&31)) | inUse,
		addr >> (c.subShift & 31) & c.subMask
}

// findLine returns the line of set whose tags entry is key, or -1.
func (c *Cache) findLine(set uint32, key uint64) int {
	first := int(set) * c.assoc
	for l := first; l < first+c.assoc; l++ {
		if c.tags[l] == key {
			return l
		}
	}
	return -1
}

// victim returns the line to replace in a set: the first line not in
// use, else the least recently used (trivially the only line when
// direct-mapped).
func (c *Cache) victim(set uint32) int {
	first := int(set) * c.assoc
	best, bestLRU := first, int64(1)<<62
	for l := first; l < first+c.assoc; l++ {
		if c.tags[l] == 0 {
			return l
		}
		if c.lru[l] < bestLRU {
			best, bestLRU = l, c.lru[l]
		}
	}
	return best
}

// bit returns the bitset word index and mask of sub-block sub of line l.
func (c *Cache) bit(l int, sub uint32) (int, uint64) {
	return l*c.words + int(sub>>6), 1 << (sub & 63)
}

// evict writes back dirty sub-blocks of a line about to be replaced.
func (c *Cache) evict(l int) {
	if c.cfg.WriteThrough {
		return
	}
	dirty := c.dirty[l*c.words : (l+1)*c.words]
	for i, d := range dirty {
		c.Stats.MemWriteWords += int64(bits.OnesCount64(d)) * c.xferWords
		dirty[i] = 0
	}
}

// Read simulates a read access (instruction fetch or data load) and
// reports whether it missed. The hit path is inline here; only a miss
// makes a further call.
func (c *Cache) Read(addr uint32) bool {
	c.tick++
	c.Stats.Reads++
	set, key, sub := c.locate(addr)
	l := c.findLine(set, key)
	if l >= 0 {
		if i, m := c.bit(l, sub); c.valid[i]&m != 0 {
			c.lru[l] = c.tick
			return false
		}
	}
	c.readMiss(set, key, sub, l)
	return true
}

// readMiss fills sub-block sub of the line for (set, key) after a read
// miss and prefetches the next sub-block; l is the line holding the key
// already, or -1.
func (c *Cache) readMiss(set uint32, key uint64, sub uint32, l int) {
	c.Stats.ReadMisses++
	l = c.fill(set, key, l)
	i, m := c.bit(l, sub)
	c.valid[i] |= m
	c.Stats.MemReadWords += c.xferWords
	if !c.cfg.NoPrefetch {
		// Wrap-around prefetch: also fetch the next sub-block, wrapping
		// within the block.
		if i, m := c.bit(l, (sub+1)&c.subMask); c.valid[i]&m == 0 {
			c.valid[i] |= m
			c.Stats.MemReadWords += c.xferWords
		}
	}
}

// Write simulates a write access and reports whether it missed.
func (c *Cache) Write(addr uint32) bool {
	c.tick++
	c.Stats.Writes++
	set, key, sub := c.locate(addr)
	l := c.findLine(set, key)
	if l >= 0 {
		if i, m := c.bit(l, sub); c.valid[i]&m != 0 {
			c.lru[l] = c.tick
			if c.cfg.WriteThrough {
				c.Stats.MemWriteWords += c.xferWords
			} else {
				c.dirty[i] |= m
			}
			return false
		}
	}
	c.Stats.WriteMisses++
	if c.cfg.NoWriteAllocate {
		c.Stats.MemWriteWords += c.xferWords
		return true
	}
	l = c.fill(set, key, l)
	i, m := c.bit(l, sub)
	c.valid[i] |= m
	c.Stats.MemReadWords += c.xferWords // no prefetch on write
	if c.cfg.WriteThrough {
		c.Stats.MemWriteWords += c.xferWords
	} else {
		c.dirty[i] |= m
	}
	return true
}

// fill ensures a line for (set, key) exists and returns it; l is the
// line holding the key already, or -1 to allocate.
func (c *Cache) fill(set uint32, key uint64, l int) int {
	if l < 0 {
		l = c.victim(set)
		c.evict(l)
		c.tags[l] = key
		clear(c.valid[l*c.words : (l+1)*c.words])
	}
	c.lru[l] = c.tick
	return l
}

// Flush invalidates everything (writing back dirty data) — used between
// measurement phases.
func (c *Cache) Flush() {
	for l := range c.tags {
		c.evict(l)
		c.tags[l] = 0
	}
	clear(c.valid)
}
