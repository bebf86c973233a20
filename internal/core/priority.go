package core

import "fmt"

// PriorityBus is an EXTENSION, not part of the paper's model: it wraps
// another scheme and swaps the bus service discipline from FCFS to a
// two-class priority queue, after the FCFS-versus-priority bus studies
// of Nikolov & Lerato (PAPERS.md). The workload model — the inner
// scheme's operation frequencies — is unchanged; what changes is how
// the contention model serves the resulting bus transactions:
// coherence operations (flushes, invalidations, update broadcasts,
// word read/write-throughs) are served ahead of queued ordinary miss
// refills, so the MVA layer routes the demand through the priority
// solver instead of the FCFS one. Bus-only: the network contention
// model has no priority counterpart.
type PriorityBus struct {
	// Inner is the wrapped scheme whose frequency table is used
	// unchanged. A nil Inner defaults to Software-Flush, the registered
	// instance's inner scheme.
	Inner Scheme
}

// inner returns the wrapped scheme, defaulting a zero PriorityBus.
func (b PriorityBus) inner() Scheme {
	if b.Inner == nil {
		return SoftwareFlush{}
	}
	return b.Inner
}

// Name implements Scheme: the inner scheme's name with a "+Prio"
// discipline marker.
func (b PriorityBus) Name() string { return b.inner().Name() + "+Prio" }

// String keeps the inner scheme's display form, which may carry knob
// values.
func (b PriorityBus) String() string {
	if s, ok := b.inner().(fmt.Stringer); ok {
		return s.String() + "+Prio"
	}
	return b.Name()
}

// cacheKey keeps the inner scheme's cache identity, so keys stay
// distinct across inner configurations (see SchemeKey).
func (b PriorityBus) cacheKey() string { return SchemeKey(b.inner()) + "+Prio" }

// Frequencies implements Scheme by delegating to the inner scheme.
func (b PriorityBus) Frequencies(p Params) (OpFreqs, error) {
	return b.inner().Frequencies(p)
}

// HighPriority implements PrioritySplitter: coherence traffic —
// flushes, invalidations, update broadcasts, and the word-granularity
// read/write-throughs of uncached shared data — jumps the queue;
// ordinary miss refills (clean/dirty, memory or cache supplied) wait.
func (PriorityBus) HighPriority(op Op) bool {
	switch op {
	case OpReadThrough, OpWriteThrough, OpWriteBroadcast, OpInvalidate,
		OpCleanFlush, OpDirtyFlush, OpCycleSteal:
		return true
	}
	return false
}

// fieldMask delegates to the inner scheme's mask; an inner scheme
// without one keeps every parameter significant.
func (b PriorityBus) fieldMask() fieldMask {
	if fm, ok := b.inner().(fieldMasker); ok {
		return fm.fieldMask()
	}
	return allMask
}
