package core

// Base is the coherence-free upper bound (paper Table 3): every cacheable
// reference behaves as in a uniprocessor; nothing is done about sharing.
type Base struct{}

// Name implements Scheme.
func (Base) Name() string { return "Base" }

// Frequencies implements Scheme per paper Table 3. A data miss occurs when
// a load/store (prob ls) misses (prob msdat); instruction misses add
// mains. A miss is dirty when the replaced block is dirty (prob md).
func (Base) Frequencies(p Params) (OpFreqs, error) {
	miss := p.LS*p.MsDat + p.MsIns
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, miss * (1 - p.MD)},
		{OpDirtyMissMem, miss * p.MD},
	}), nil
}

// NoCache is the simplest software scheme (paper Table 4): shared data is
// marked uncacheable, so every shared load is a read-through and every
// shared store a write-through, while unshared data misses as in Base but
// on the unshared fraction only.
type NoCache struct{}

// Name implements Scheme.
func (NoCache) Name() string { return "No-Cache" }

// Frequencies implements Scheme per paper Table 4.
func (NoCache) Frequencies(p Params) (OpFreqs, error) {
	miss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, miss * (1 - p.MD)},
		{OpDirtyMissMem, miss * p.MD},
		{OpReadThrough, p.LS * p.Shd * (1 - p.WR)},
		{OpWriteThrough, p.LS * p.Shd * p.WR},
	}), nil
}

// SoftwareFlush caches shared data but purges it with explicit flush
// instructions, typically at critical-section exit (paper Table 5 plus the
// two prose effects the table omits). Frequencies are per *non-flush*
// instruction: flush-instruction overhead is amortized over the real work.
type SoftwareFlush struct{}

// Name implements Scheme.
func (SoftwareFlush) Name() string { return "Software-Flush" }

// Frequencies implements Scheme. With flush rate f = ls*shd/apl per
// non-flush instruction, the scheme adds:
//
//  1. the flush instructions themselves — dirty with probability mdshd,
//     clean otherwise;
//  2. one clean miss per flush: the re-fetch of the flushed line on its
//     next use (the paper's "miss which brought the flushed line into the
//     cache", approximated as always clean because the flush just wrote
//     the line back);
//  3. instruction misses scaled by (1+f), because flush instructions
//     lengthen the instruction stream.
//
// Unshared data misses as in No-Cache.
func (SoftwareFlush) Frequencies(p Params) (OpFreqs, error) {
	f := 0.0
	if p.APL > 0 {
		f = p.LS * p.Shd / p.APL
	}
	miss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns*(1+f)
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, miss*(1-p.MD) + f},
		{OpDirtyMissMem, miss * p.MD},
		{OpCleanFlush, f * (1 - p.MdShd)},
		{OpDirtyFlush, f * p.MdShd},
	}), nil
}

// Dragon is the snoopy write-broadcast hardware protocol (paper Table 6),
// chosen because Archibald & Baer found its performance among the best.
// Stores to blocks present in other caches broadcast the word; misses
// dirty in another cache are supplied cache-to-cache; broadcasts steal a
// cycle in each holding cache.
type Dragon struct{}

// Name implements Scheme.
func (Dragon) Name() string { return "Dragon" }

// Frequencies implements Scheme per paper Table 6. Data misses split
// between memory-supplied (the block is clean elsewhere or unshared,
// probability 1 - shd*(1-oclean)) and cache-supplied (shd*(1-oclean)).
func (Dragon) Frequencies(p Params) (OpFreqs, error) {
	fromCache := p.Shd * (1 - p.OClean)
	memMiss := p.LS*p.MsDat*(1-fromCache) + p.MsIns
	cacheMiss := p.LS * p.MsDat * fromCache
	bcast := p.LS * p.Shd * p.WR * p.OPres
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, memMiss * (1 - p.MD)},
		{OpDirtyMissMem, memMiss * p.MD},
		{OpWriteBroadcast, bcast},
		{OpCleanMissCache, cacheMiss * (1 - p.MD)},
		{OpDirtyMissCache, cacheMiss * p.MD},
		{OpCycleSteal, bcast * p.NShd},
	}), nil
}

// Directory is an EXTENSION, not part of the paper's model: a minimal
// directory-based hardware scheme for arbitrary interconnects, included
// because Section 6.3 remarks that Software-Flush at low parameters
// "approximates the performance of hardware-based directory schemes".
//
// The model: all data is cacheable and misses as in Base. A store to a
// shared block present elsewhere (probability shd*wr*opres per reference)
// triggers a directory transaction costed as a write-through (the
// update/invalidate message to the directory); misses are otherwise
// memory-supplied. This uses only operations defined in both the bus and
// network cost tables, so it can be evaluated on either.
type Directory struct{}

// Name implements Scheme.
func (Directory) Name() string { return "Directory" }

// Frequencies implements Scheme.
func (Directory) Frequencies(p Params) (OpFreqs, error) {
	miss := p.LS*p.MsDat + p.MsIns
	// Invalidations force the next reference by another processor to
	// miss: add a re-fetch miss per invalidating write, scaled by the
	// probability another cache holds the block.
	inval := p.LS * p.Shd * p.WR * p.OPres
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, (miss + inval) * (1 - p.MD)},
		{OpDirtyMissMem, (miss + inval) * p.MD},
		{OpWriteThrough, inval},
	}), nil
}
