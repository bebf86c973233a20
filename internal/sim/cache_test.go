package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheLineIs16Bytes pins the line layout: every concurrent run
// allocates a machine's worth of lines, so a field order or a 64-bit
// clock that pads a line back to 24 bytes costs half again the cache
// memory.
func TestCacheLineIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("sizeof(line) = %d, want 16", got)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := []CacheConfig{
		{Size: 64 * 1024, BlockSize: 16, Assoc: 1},
		{Size: 16 * 1024, BlockSize: 16, Assoc: 4},
		{Size: 256, BlockSize: 16, Assoc: 16},
		{Size: 16, BlockSize: 16, Assoc: 1},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	bad := []CacheConfig{
		{Size: 0, BlockSize: 16, Assoc: 1},
		{Size: 100, BlockSize: 16, Assoc: 1},
		{Size: 64, BlockSize: 0, Assoc: 1},
		{Size: 64, BlockSize: 24, Assoc: 1},
		{Size: 8, BlockSize: 16, Assoc: 1},
		{Size: 64, BlockSize: 16, Assoc: 0},
		{Size: 64, BlockSize: 16, Assoc: 8},
		{Size: 64, BlockSize: 16, Assoc: 3},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", cfg, err)
		}
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 256, BlockSize: 16, Assoc: 2})
	b := c.BlockOf(0x1000)
	if c.Touch(b, false) {
		t.Error("cold cache must miss")
	}
	if v := c.Insert(b, false); v.Valid {
		t.Error("insert into empty set must not evict")
	}
	if !c.Touch(b, false) {
		t.Error("must hit after insert")
	}
	if c.IsDirty(b) {
		t.Error("clean insert + read must stay clean")
	}
	if !c.Touch(b, true) {
		t.Error("write hit")
	}
	if !c.IsDirty(b) {
		t.Error("write must dirty the line")
	}
}

func TestCacheBlockOf(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 256, BlockSize: 16, Assoc: 1})
	if c.BlockOf(0) != 0 || c.BlockOf(15) != 0 || c.BlockOf(16) != 1 || c.BlockOf(0x100) != 16 {
		t.Error("BlockOf wrong")
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	// 4 sets of 1 line: blocks 0 and 4 conflict.
	c := mustCache(t, CacheConfig{Size: 64, BlockSize: 16, Assoc: 1})
	c.Insert(0, true)
	v := c.Insert(4, false)
	if !v.Valid || v.Block != 0 || !v.Dirty {
		t.Errorf("conflict eviction wrong: %+v", v)
	}
	if c.Present(0) {
		t.Error("evicted block still present")
	}
	if !c.Present(4) {
		t.Error("new block absent")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// 1 set of 4 ways (fully associative, 4 lines).
	c := mustCache(t, CacheConfig{Size: 64, BlockSize: 16, Assoc: 4})
	for b := uint64(0); b < 4; b++ {
		c.Insert(b*4, false) // all map to set 0 (4 sets... assoc 4, 1 set)
	}
	// With one set, any block lands there. Touch 0 to make it MRU.
	c.Touch(0, false)
	// Next insert must evict the LRU, which is block 4 (inserted
	// second, never touched again).
	v := c.Insert(100, false)
	if !v.Valid || v.Block != 4 {
		t.Errorf("LRU eviction: got %+v, want block 4", v)
	}
	if !c.Present(0) {
		t.Error("MRU block evicted")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 64, BlockSize: 16, Assoc: 2})
	c.Insert(7, true)
	present, wasDirty := c.Invalidate(7)
	if !present || !wasDirty {
		t.Errorf("invalidate dirty line: present=%v dirty=%v", present, wasDirty)
	}
	if c.Present(7) {
		t.Error("line still present after invalidate")
	}
	present, wasDirty = c.Invalidate(7)
	if present || wasDirty {
		t.Error("second invalidate must be a no-op")
	}
}

func TestCacheMarkClean(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 64, BlockSize: 16, Assoc: 2})
	c.Insert(3, true)
	c.MarkClean(3)
	if c.IsDirty(3) {
		t.Error("MarkClean failed")
	}
	if !c.Present(3) {
		t.Error("MarkClean must not evict")
	}
	c.MarkClean(99) // absent: no-op, no panic
}

func TestCacheInvalidLineReusedFirst(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 64, BlockSize: 16, Assoc: 4})
	c.Insert(0, false)
	c.Insert(4, true)
	c.Invalidate(0)
	// The invalid slot must be reused before any valid line is
	// evicted.
	v := c.Insert(8, false)
	if v.Valid {
		t.Errorf("eviction despite free slot: %+v", v)
	}
	if !c.Present(4) || !c.Present(8) {
		t.Error("lines lost")
	}
}

func TestCacheOccupancy(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 128, BlockSize: 16, Assoc: 2})
	if c.Occupancy() != 0 {
		t.Error("fresh cache not empty")
	}
	for b := uint64(0); b < 100; b++ {
		if !c.Touch(b, false) {
			c.Insert(b, false)
		}
	}
	if c.Occupancy() != 8 {
		t.Errorf("occupancy = %d, want 8 (full)", c.Occupancy())
	}
}

func TestCachePropertyNoDuplicateTags(t *testing.T) {
	// Under any access pattern, a block is present in at most one way,
	// and occupancy never exceeds capacity.
	f := func(seed uint64, ops []uint16) bool {
		c, err := NewCache(CacheConfig{Size: 512, BlockSize: 16, Assoc: 4})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		for _, op := range ops {
			block := uint64(op % 128)
			write := rng.IntN(2) == 0
			switch rng.IntN(4) {
			case 0:
				if !c.Touch(block, write) {
					c.Insert(block, write)
				}
			case 1:
				c.Invalidate(block)
			case 2:
				c.MarkClean(block)
			default:
				if !c.Present(block) {
					c.Insert(block, write)
				}
			}
			// Presence implies exactly one matching way.
			set := c.set(block)
			count := 0
			for i := range set {
				if set[i].state != invalid && set[i].tag == block {
					count++
				}
			}
			if count > 1 {
				return false
			}
		}
		return c.Occupancy() <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCacheLRUSimulatesStackProperty(t *testing.T) {
	// Inclusion property of LRU: a larger fully-associative cache
	// hits whenever a smaller one does, on any access stream.
	small := mustCache(t, CacheConfig{Size: 8 * 16, BlockSize: 16, Assoc: 8})
	big := mustCache(t, CacheConfig{Size: 32 * 16, BlockSize: 16, Assoc: 32})
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 20000; i++ {
		block := uint64(rng.IntN(64))
		hitSmall := small.Touch(block, false)
		hitBig := big.Touch(block, false)
		if hitSmall && !hitBig {
			t.Fatalf("inclusion violated at access %d block %d", i, block)
		}
		if !hitSmall {
			small.Insert(block, false)
		}
		if !hitBig {
			big.Insert(block, false)
		}
	}
}
