// Package sim is a trace-driven multiprocessor cache and bus simulator,
// the validation substrate of the paper (Section 3). It replays an
// interleaved multiprocessor address trace against per-processor
// set-associative write-back caches and a shared bus with the fixed
// per-operation service times of paper Table 1, for the Base, Dragon,
// No-Cache, and Software-Flush coherence schemes (plus a write-invalidate
// snoopy extension), and reports miss rates, bus contention, and
// processor utilization.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadConfig reports an invalid simulator configuration.
var ErrBadConfig = errors.New("sim: invalid config")

// Policy selects the replacement policy within a set.
type Policy uint8

// Replacement policies. LRU is the paper's (and the default); FIFO and
// Random are provided for ablation studies of the validation's
// sensitivity to the policy choice.
const (
	// LRU evicts the least recently used line.
	LRU Policy = iota
	// FIFO evicts the line resident longest, ignoring hits.
	FIFO
	// Random evicts a deterministically pseudo-random line.
	Random
)

// String returns "lru", "fifo", or "random".
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// PolicyByName resolves a policy name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "lru", "LRU", "":
		return LRU, nil
	case "fifo", "FIFO":
		return FIFO, nil
	case "random", "rand":
		return Random, nil
	}
	return 0, fmt.Errorf("%w: unknown replacement policy %q", ErrBadConfig, name)
}

// CacheConfig sizes one per-processor cache.
type CacheConfig struct {
	// Size is the total capacity in bytes.
	Size int
	// BlockSize is the line size in bytes (the paper uses 16).
	BlockSize int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
	// Replacement is the replacement policy (zero value = LRU, the
	// paper's).
	Replacement Policy
}

// Validate checks the configuration: power-of-two sizes, associativity
// dividing the line count.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.Size&(c.Size-1) != 0 {
		return fmt.Errorf("%w: cache size %d not a power of two", ErrBadConfig, c.Size)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("%w: block size %d not a power of two", ErrBadConfig, c.BlockSize)
	}
	if c.Size < c.BlockSize {
		return fmt.Errorf("%w: cache size %d < block size %d", ErrBadConfig, c.Size, c.BlockSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("%w: associativity %d", ErrBadConfig, c.Assoc)
	}
	if c.Replacement > Random {
		return fmt.Errorf("%w: replacement policy %d", ErrBadConfig, c.Replacement)
	}
	lines := c.Size / c.BlockSize
	if c.Assoc > lines {
		return fmt.Errorf("%w: associativity %d exceeds %d lines", ErrBadConfig, c.Assoc, lines)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("%w: %d lines not divisible by associativity %d", ErrBadConfig, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("%w: %d sets not a power of two", ErrBadConfig, sets)
	}
	return nil
}

// lineState is the per-line coherence-free state; protocols layer their
// semantics on top of presence + dirtiness.
type lineState uint8

const (
	invalid lineState = iota
	clean
	dirty
)

// line is one cache line, 16 bytes: lastUse and the cache clock are
// 32-bit because the clock advances at most once per Touch hit or
// Insert, so at most once per simulated record, and Prepare rejects
// traces over math.MaxInt32 records.
type line struct {
	tag     uint64
	lastUse uint32
	state   lineState
}

// Cache is one processor's set-associative write-back cache with true LRU
// replacement. Addresses are pre-divided by BlockSize: all methods take
// block numbers. Its replacement clock is 32-bit: more than
// math.MaxUint32 Touch hits and Inserts on one Cache wrap it and upset
// the replacement order, a bound no simulation can reach.
type Cache struct {
	cfg CacheConfig
	// lines holds the sets back to back: set s is
	// lines[s*Assoc : (s+1)*Assoc].
	lines      []line
	setMask    uint64
	blockShift uint
	clock      uint32
}

// NewCache builds a cache per the configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / cfg.BlockSize / cfg.Assoc
	return &Cache{
		cfg:        cfg,
		lines:      make([]line, nsets*cfg.Assoc),
		setMask:    uint64(nsets - 1),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockSize))),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// BlockOf converts a byte address to a block number under this cache's
// block size.
func (c *Cache) BlockOf(addr uint64) uint64 {
	return addr >> c.blockShift
}

// set returns the lines of block's set.
func (c *Cache) set(block uint64) []line {
	i := int(block&c.setMask) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc]
}

// find returns the line holding block, or nil.
func (c *Cache) find(block uint64) *line {
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// Present reports whether the block is cached.
func (c *Cache) Present(block uint64) bool { return c.find(block) != nil }

// IsDirty reports whether the block is cached dirty.
func (c *Cache) IsDirty(block uint64) bool {
	l := c.find(block)
	return l != nil && l.state == dirty
}

// Touch records a use of a cached block for replacement bookkeeping and
// returns whether it was present (a hit). If write is true and the block
// is present it becomes dirty.
func (c *Cache) Touch(block uint64, write bool) bool {
	l := c.find(block)
	if l == nil {
		return false
	}
	if c.cfg.Replacement == LRU {
		c.clock++
		l.lastUse = c.clock
	}
	if write {
		l.state = dirty
	}
	return true
}

// Victim describes the line evicted by an Insert.
type Victim struct {
	// Block is the evicted block number.
	Block uint64
	// Dirty reports the victim needed a write-back.
	Dirty bool
	// Valid reports whether anything was evicted at all.
	Valid bool
}

// Insert fills the block into its set, evicting the LRU line if the set is
// full. If write is true the new line starts dirty. The caller is
// responsible for having verified the block missed.
func (c *Cache) Insert(block uint64, write bool) Victim {
	set := c.set(block)
	c.clock++
	var victim *line
	for i := range set {
		if set[i].state == invalid {
			victim = &set[i]
			break
		}
	}
	var out Victim
	if victim == nil {
		switch c.cfg.Replacement {
		case Random:
			// xorshift on the insertion clock: deterministic,
			// cheap, well-spread.
			r := uint64(c.clock)
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			victim = &set[r%uint64(len(set))]
		default:
			// LRU and FIFO both evict the minimum lastUse; they
			// differ in whether Touch refreshes it.
			victim = &set[0]
			for i := 1; i < len(set); i++ {
				if set[i].lastUse < victim.lastUse {
					victim = &set[i]
				}
			}
		}
		out = Victim{Block: victim.tag, Dirty: victim.state == dirty, Valid: true}
	}
	victim.tag = block
	victim.lastUse = c.clock
	if write {
		victim.state = dirty
	} else {
		victim.state = clean
	}
	return out
}

// Invalidate removes the block if present and reports (present, wasDirty).
func (c *Cache) Invalidate(block uint64) (present, wasDirty bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	wasDirty = l.state == dirty
	l.state = invalid
	return true, wasDirty
}

// MarkClean downgrades a dirty block to clean (e.g. after a Dragon
// cache-to-cache supply updates memory). No-op if absent.
func (c *Cache) MarkClean(block uint64) {
	if l := c.find(block); l != nil && l.state == dirty {
		l.state = clean
	}
}

// Occupancy returns the number of valid lines (for tests and stats).
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.lines {
		if l.state != invalid {
			n++
		}
	}
	return n
}
