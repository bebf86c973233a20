package core

// WriteInvalidate is an EXTENSION, not part of the paper's model: a
// snoopy write-invalidate hardware protocol in the MESI family, the
// classic alternative to Dragon's write-broadcast policy. A store to a
// block present in other caches broadcasts its address once and
// invalidates the other copies (OpInvalidate); the invalidated readers
// re-miss on their next reference, so invalidation traffic converts into
// extra data misses instead of Dragon's word broadcasts and cycle
// steals. Misses whose block is dirty in another cache are supplied
// cache-to-cache, as in Dragon. The frequency table mirrors the
// Table 3-6 shape: per non-flush instruction, OpInstr always present.
type WriteInvalidate struct{}

// Name implements Scheme.
func (WriteInvalidate) Name() string { return "Write-Invalidate" }

// Frequencies implements Scheme. Invalidations occur on stores to shared
// blocks present elsewhere (ls*shd*wr*opres, the same event that
// triggers Dragon's broadcast); each one forces a re-fetch miss in the
// invalidated caches, so data misses are ls*msdat plus the invalidation
// rate. Misses split between memory-supplied and cache-supplied exactly
// as in Dragon (probability shd*(1-oclean) that the block is dirty in
// another cache).
func (WriteInvalidate) Frequencies(p Params) (OpFreqs, error) {
	inval := p.LS * p.Shd * p.WR * p.OPres
	fromCache := p.Shd * (1 - p.OClean)
	dataMiss := p.LS*p.MsDat + inval
	memMiss := dataMiss*(1-fromCache) + p.MsIns
	cacheMiss := dataMiss * fromCache
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, memMiss * (1 - p.MD)},
		{OpDirtyMissMem, memMiss * p.MD},
		{OpCleanMissCache, cacheMiss * (1 - p.MD)},
		{OpDirtyMissCache, cacheMiss * p.MD},
		{OpInvalidate, inval},
	}), nil
}
