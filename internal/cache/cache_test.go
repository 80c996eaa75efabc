package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Size: 1024, BlockBytes: 24, SubBytes: 8, Assoc: 1},
		{Size: 1000, BlockBytes: 32, SubBytes: 8, Assoc: 1},
		{Size: 1024, BlockBytes: 32, SubBytes: 12, Assoc: 1},
		{Size: 1024, BlockBytes: 32, SubBytes: 8, Assoc: 0},
		{Size: 1024, BlockBytes: 32, SubBytes: 8, Assoc: 3},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	good := []Config{
		PaperConfig(4096),
		PaperConfigSub(1024, 8),
		PaperConfigSub(16384, 64),
		{Size: 4096, BlockBytes: 32, SubBytes: 8, Assoc: 2},
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestColdMissAndHit(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	if !c.Read(0x1000) {
		t.Fatal("cold read must miss")
	}
	if c.Read(0x1000) {
		t.Fatal("second read must hit")
	}
	// Wrap-around prefetch makes the next word a hit too.
	if c.Read(0x1004) {
		t.Fatal("prefetched word must hit")
	}
	// Two words ahead is another sub-block: miss.
	if !c.Read(0x1008) {
		t.Fatal("non-prefetched sub-block must miss")
	}
	if got := c.Stats.ReadMisses; got != 2 {
		t.Fatalf("read misses = %d, want 2", got)
	}
}

func TestWrapAroundPrefetchWraps(t *testing.T) {
	c := MustNew(PaperConfig(1024)) // 32-byte blocks, 4-byte sub-blocks
	// Miss on the LAST sub-block of a block: prefetch wraps to the first.
	if !c.Read(0x101C) {
		t.Fatal("cold read must miss")
	}
	if c.Read(0x1000) {
		t.Fatal("wrap-around prefetch should have filled the first sub-block")
	}
	if !c.Read(0x1004) {
		t.Fatal("0x1004 was neither fetched nor prefetched; must miss")
	}
}

func TestConflictEviction(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	a, b := uint32(0x0000), uint32(0x0400) // same index, different tags
	c.Read(a)
	c.Read(b) // evicts a
	if !c.Read(a) {
		t.Fatal("conflicting address should have evicted the line")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	dm := MustNew(Config{Size: 1024, BlockBytes: 32, SubBytes: 4, Assoc: 1})
	sa := MustNew(Config{Size: 1024, BlockBytes: 32, SubBytes: 4, Assoc: 2})
	for i := 0; i < 100; i++ {
		dm.Read(0x0000)
		dm.Read(0x0400)
		sa.Read(0x0000)
		sa.Read(0x0400)
	}
	if dm.Stats.ReadMisses <= sa.Stats.ReadMisses {
		t.Errorf("2-way (%d misses) should beat direct-mapped (%d) on a ping-pong conflict",
			sa.Stats.ReadMisses, dm.Stats.ReadMisses)
	}
	if sa.Stats.ReadMisses != 2 {
		t.Errorf("2-way misses = %d, want 2 cold misses only", sa.Stats.ReadMisses)
	}
}

func TestWriteBackTraffic(t *testing.T) {
	wb := MustNew(Config{Size: 256, BlockBytes: 32, SubBytes: 8, Assoc: 1})
	wt := MustNew(Config{Size: 256, BlockBytes: 32, SubBytes: 8, Assoc: 1, WriteThrough: true})
	// Write the same sub-block many times: write-back pays once on
	// eviction, write-through pays every time.
	for i := 0; i < 10; i++ {
		wb.Write(0x40)
		wt.Write(0x40)
	}
	wb.Read(0x40 + 256) // conflicting read evicts the dirty line
	wt.Read(0x40 + 256)
	if wb.Stats.MemWriteWords != 2 { // one 8-byte sub-block
		t.Errorf("write-back wrote %d words, want 2", wb.Stats.MemWriteWords)
	}
	if wt.Stats.MemWriteWords != 20 {
		t.Errorf("write-through wrote %d words, want 20", wt.Stats.MemWriteWords)
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	c.Read(0x100)
	c.Flush()
	if !c.Read(0x100) {
		t.Fatal("read after flush must miss")
	}
}

// Property: miss count is monotonically non-increasing in cache size for a
// direct-mapped cache over the same trace — the paper's Figure 16 premise.
// (True for nested direct-mapped caches with LRU=trivial replacement.)
func TestMissesMonotonicInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]uint32, 20000)
	base := uint32(0x1000)
	for i := range trace {
		// Loopy, local pattern: mixture of sequential runs and jumps.
		if rng.Intn(10) == 0 {
			base = uint32(0x1000 + rng.Intn(32<<10))
		}
		base += 4
		trace[i] = base &^ 3
	}
	var prev int64 = 1 << 62
	for _, size := range []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		c := MustNew(PaperConfig(size))
		for _, a := range trace {
			c.Read(a)
		}
		if c.Stats.ReadMisses > prev {
			t.Errorf("size %d has %d misses, more than the smaller cache's %d",
				size, c.Stats.ReadMisses, prev)
		}
		prev = c.Stats.ReadMisses
	}
}

// Property: for any access sequence, hits + misses == accesses and traffic
// is consistent with misses.
func TestAccountingInvariants(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := MustNew(PaperConfigSub(2048, 32))
		var reads, wr int64
		for i, a := range addrs {
			a %= 1 << 20
			if i < len(writes) && writes[i] {
				c.Write(a)
				wr++
			} else {
				c.Read(a)
				reads++
			}
		}
		s := c.Stats
		if s.Reads != reads || s.Writes != wr {
			return false
		}
		if s.ReadMisses > s.Reads || s.WriteMisses > s.Writes {
			return false
		}
		// Each read miss moves one or two sub-blocks (prefetch), each
		// write miss exactly one; write-back traffic bounded by dirty data.
		minWords := (s.ReadMisses + s.WriteMisses) * 2 // 8-byte sub-blocks = 2 words
		maxWords := (s.ReadMisses*2 + s.WriteMisses) * 2
		return s.MemReadWords >= minWords && s.MemReadWords <= maxWords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refGrid returns every Validate-accepted geometry with a size in sizes,
// blocks and sub-blocks of any power of two up to 512 bytes (so up to
// 512 sub-blocks per block), associativity 1, 2 or 4, and every
// combination of the three policy flags.
func refGrid(sizes []uint32) []Config {
	var out []Config
	for _, size := range sizes {
		for block := uint32(1); block <= 512; block *= 2 {
			for sub := uint32(1); sub <= block; sub *= 2 {
				for _, assoc := range []uint32{1, 2, 4} {
					for flags := 0; flags < 8; flags++ {
						cfg := Config{Size: size, BlockBytes: block, SubBytes: sub, Assoc: assoc,
							WriteThrough: flags&1 != 0, NoWriteAllocate: flags&2 != 0, NoPrefetch: flags&4 != 0}
						if cfg.Validate() == nil {
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

// TestFlatMatchesReference drives the flat kernel and the pre-flat
// reference (ref_test.go) with the same seeded stream of reads, writes
// and flushes over every geometry of refGrid, comparing the miss result
// and the statistics after every access. The stream mixes short strides
// (repeated reads of one sub-block), jumps within a region a few times
// the cache size (conflicts and LRU replacement) and rare addresses
// anywhere in the 32-bit space (tags of every width).
func TestFlatMatchesReference(t *testing.T) {
	sizes := []uint32{64, 512, 4096}
	n := 1500
	if testing.Short() {
		sizes, n = []uint32{512}, 500
	}
	grid := refGrid(sizes)
	var wide bool
	for _, cfg := range grid {
		wide = wide || cfg.BlockBytes/cfg.SubBytes > 64
	}
	if !wide {
		t.Fatal("grid has no geometry with more than 64 sub-blocks per block")
	}
	for gi, cfg := range grid {
		flat, ref := MustNew(cfg), must(newRef(cfg))
		rng := rand.New(rand.NewSource(int64(gi)))
		addr := uint32(0x1000)
		for i := 0; i < n; i++ {
			switch r := rng.Intn(100); {
			case r < 60:
				addr += uint32(rng.Intn(5))
			case r < 95:
				addr = 0x1000 + uint32(rng.Intn(int(4*cfg.Size)))
			default:
				addr = rng.Uint32()
			}
			var op string
			var gotMiss, wantMiss bool
			switch r := rng.Intn(1000); {
			case r < 2:
				op = "flush"
				flat.Flush()
				ref.Flush()
			case r < 250:
				op = "write"
				gotMiss, wantMiss = flat.Write(addr), ref.Write(addr)
			default:
				op = "read"
				gotMiss, wantMiss = flat.Read(addr), ref.Read(addr)
			}
			if gotMiss != wantMiss || flat.Stats != ref.Stats {
				t.Fatalf("%+v: access %d (%s %#x): miss %v, stats %+v; reference miss %v, stats %+v",
					cfg, i, op, addr, gotMiss, flat.Stats, wantMiss, ref.Stats)
			}
			if i%100 == 99 || i == n-1 {
				if d := lineDiff(flat, ref); d != "" {
					t.Fatalf("%+v: after access %d (%s %#x): %s", cfg, i, op, addr, d)
				}
			}
		}
	}
	t.Logf("%d geometries, %d accesses each", len(grid), n)
}

// lineDiff compares every line's tag, LRU stamp and per-sub-block
// valid and dirty state; "" means identical.
func lineDiff(c *Cache, r *refCache) string {
	for set := range r.sets {
		for w := range r.sets[set] {
			rl, l := &r.sets[set][w], set*c.assoc+w
			if used := c.tags[l] != 0; used != rl.inUse || used && (c.lru[l] != rl.lru || c.tags[l] != uint64(rl.tag)|inUse) {
				return fmt.Sprintf("set %d way %d: tags entry %#x lru %d, reference in use %v tag %#x lru %d",
					set, w, c.tags[l], c.lru[l], rl.inUse, rl.tag, rl.lru)
			}
			for sub := range rl.valid {
				i, m := c.bit(l, uint32(sub))
				if c.valid[i]&m != 0 != rl.valid[sub] || c.dirty[i]&m != 0 != rl.dirty[sub] {
					return fmt.Sprintf("set %d way %d sub-block %d: valid/dirty differ", set, w, sub)
				}
			}
		}
	}
	return ""
}

func must(c *refCache, err error) *refCache {
	if err != nil {
		panic(err)
	}
	return c
}
