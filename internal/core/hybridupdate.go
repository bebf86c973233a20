package core

import (
	"fmt"
	"strconv"
)

// HybridUpdate is an EXTENSION, not part of the paper's model: a tunable
// snoopy hybrid of the update (Dragon) and invalidate (Write-Invalidate)
// policies, after the hybrid update/invalidate protocols studied by
// Dovgopol & Rosonke (PAPERS.md). A store to a shared block present
// elsewhere is handled as a word broadcast (update) with probability
// UpdateFrac and as an invalidation otherwise — modelling a per-block
// competitive threshold that updates hot blocks and invalidates cold
// ones. UpdateFrac = 1 degenerates to Dragon's write policy,
// UpdateFrac = 0 to Write-Invalidate's.
type HybridUpdate struct {
	// UpdateFrac in [0,1] is the share of remote-present stores handled
	// as updates (broadcasts); the rest invalidate.
	UpdateFrac float64
}

// Name implements Scheme.
func (HybridUpdate) Name() string { return "Hybrid-Update" }

// String includes the split, to two decimals, for display.
func (h HybridUpdate) String() string {
	return "Hybrid-Update(update=" + strconv.FormatFloat(h.UpdateFrac, 'f', 2, 64) + ")"
}

// cacheKey carries the exact update fraction (see SchemeKey).
func (h HybridUpdate) cacheKey() string {
	return "Hybrid-Update(update=" + strconv.FormatFloat(h.UpdateFrac, 'g', -1, 64) + ")"
}

// Frequencies implements Scheme: the Dragon formulas applied to the
// update share of remote-present stores and the Write-Invalidate
// formulas applied to the rest. Only the invalidate share adds re-fetch
// misses; only the update share broadcasts and steals cycles.
func (h HybridUpdate) Frequencies(p Params) (OpFreqs, error) {
	if !(h.UpdateFrac >= 0 && h.UpdateFrac <= 1) { // rejects NaN too
		return OpFreqs{}, fmt.Errorf("%w: hybrid update fraction %g not in [0,1]", ErrInvalidParams, h.UpdateFrac)
	}
	w := p.LS * p.Shd * p.WR * p.OPres
	upd := w * h.UpdateFrac
	inval := w * (1 - h.UpdateFrac)
	fromCache := p.Shd * (1 - p.OClean)
	dataMiss := p.LS*p.MsDat + inval
	memMiss := dataMiss*(1-fromCache) + p.MsIns
	cacheMiss := dataMiss * fromCache
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, memMiss * (1 - p.MD)},
		{OpDirtyMissMem, memMiss * p.MD},
		{OpWriteBroadcast, upd},
		{OpCleanMissCache, cacheMiss * (1 - p.MD)},
		{OpDirtyMissCache, cacheMiss * p.MD},
		{OpCycleSteal, upd * p.NShd},
		{OpInvalidate, inval},
	}), nil
}
