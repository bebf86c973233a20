package core

import (
	"fmt"
	"strconv"
)

// Hybrid combines the two software schemes on one machine, as the paper
// describes for real systems (Section 2.2.3): "On the Elxsi 6400, the
// programmer determines whether a particular shared variable is kept
// coherent by the No-Cache or Software-Flush scheme. In the MultiTitan,
// locks are not cached, and other shared variables are kept coherent by
// Software-Flush."
//
// LockFrac is the fraction of shared references that target
// synchronization objects handled No-Cache style (uncacheable); the
// remaining shared references are cached and flushed with the usual apl.
// LockFrac = 1 degenerates to No-Cache, LockFrac = 0 to Software-Flush.
type Hybrid struct {
	// LockFrac in [0,1] is the uncacheable (lock) share of shared
	// references.
	LockFrac float64
}

// Name implements Scheme.
func (h Hybrid) Name() string { return "Hybrid" }

// String includes the split, to two decimals, for display.
func (h Hybrid) String() string {
	return "Hybrid(lock=" + strconv.FormatFloat(h.LockFrac, 'f', 2, 64) + ")"
}

// cacheKey carries the exact lock fraction (see SchemeKey).
func (h Hybrid) cacheKey() string {
	return "Hybrid(lock=" + strconv.FormatFloat(h.LockFrac, 'g', -1, 64) + ")"
}

// Frequencies implements Scheme: the No-Cache formulas applied to the
// lock share and the Software-Flush formulas applied to the rest.
func (h Hybrid) Frequencies(p Params) (OpFreqs, error) {
	if !(h.LockFrac >= 0 && h.LockFrac <= 1) { // rejects NaN too
		return OpFreqs{}, fmt.Errorf("%w: hybrid lock fraction %g not in [0,1]", ErrInvalidParams, h.LockFrac)
	}
	lockRefs := p.LS * p.Shd * h.LockFrac
	flushShd := p.Shd * (1 - h.LockFrac)
	var f float64
	if p.APL > 0 {
		f = p.LS * flushShd / p.APL
	}
	miss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns*(1+f)
	return MakeOpFreqs([]OpFreq{
		{OpInstr, 1},
		{OpCleanMissMem, miss*(1-p.MD) + f},
		{OpDirtyMissMem, miss * p.MD},
		{OpReadThrough, lockRefs * (1 - p.WR)},
		{OpWriteThrough, lockRefs * p.WR},
		{OpCleanFlush, f * (1 - p.MdShd)},
		{OpDirtyFlush, f * p.MdShd},
	}), nil
}
