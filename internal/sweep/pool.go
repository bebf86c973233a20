package sweep

import (
	"sync"
	"sync/atomic"

	"swcc/internal/core"
)

// Length-bucketed slice pools for the hot batch paths. A sweep batch
// churns through short-lived result slices whose lengths vary with the
// requested machine size; a single sync.Pool would hand a 4096-point
// buffer to a 4-point request (wasting cache lines) or the reverse
// (forcing reallocation). Bucketing by power-of-two capacity keeps
// reuse high across mixed batch shapes.

// poolMinShift is the smallest class capacity (1<<poolMinShift); smaller
// requests round up. poolClasses spans capacities up to 1<<18, past the
// server's MaxProcs and batch caps, so every legal request has a class.
const (
	poolMinShift = 3
	poolClasses  = 16
)

// classFor returns the smallest class whose capacity covers n, or -1
// when n exceeds the largest class (the caller then allocates directly;
// such slices are never pooled).
func classFor(n int) int {
	c := 0
	for n > 1<<(poolMinShift+c) {
		c++
		if c >= poolClasses {
			return -1
		}
	}
	return c
}

// SlicePool is a set of sync.Pools bucketed by power-of-two capacity.
// It stores *[]T (not []T) so Put never boxes a slice header into a
// fresh allocation. The zero value is ready to use. Buffers released to
// the pool are cleared, so pooling never pins a finished request's data.
type SlicePool[T any] struct {
	classes [poolClasses]sync.Pool

	// acquires and releases count every Acquire and every non-nil Release
	// call — including slices too large for any class, which are counted
	// even though they bypass the sync.Pools. For a pool whose buffers are
	// strictly request-scoped (busPointPool, serve's response pool) the
	// difference is the number of buffers currently checked out, so
	// "acquires == releases at quiescence" is the no-leak invariant the
	// fault-injection tests assert.
	acquires atomic.Uint64
	releases atomic.Uint64
}

// Accounting returns the lifetime Acquire and Release call counts. See
// the field comment for which pools the balance invariant applies to.
func (p *SlicePool[T]) Accounting() (acquires, releases uint64) {
	return p.acquires.Load(), p.releases.Load()
}

// Acquire returns a *[]T of length n whose capacity is the class size.
// The contents are zeroed (fresh or recycled alike). Pass the same
// pointer to Release when the slice is no longer referenced.
func (p *SlicePool[T]) Acquire(n int) *[]T {
	p.acquires.Add(1)
	c := classFor(n)
	if c < 0 {
		s := make([]T, n)
		return &s
	}
	if v := p.classes[c].Get(); v != nil {
		s := v.(*[]T)
		*s = (*s)[:n]
		return s
	}
	s := make([]T, n, 1<<(poolMinShift+c))
	return &s
}

// Release returns a slice to its class. Slices whose capacity is not an
// exact class size (including oversized direct allocations) are dropped
// for the GC. The slice is cleared first so pooled memory never pins
// result data or interface values from a finished request.
func (p *SlicePool[T]) Release(s *[]T) {
	if s == nil {
		return
	}
	p.releases.Add(1)
	c := classFor(cap(*s))
	if c < 0 || cap(*s) != 1<<(poolMinShift+c) {
		return
	}
	*s = (*s)[:cap(*s)]
	clear(*s)
	*s = (*s)[:0]
	p.classes[c].Put(s)
}

var busPointPool SlicePool[core.BusPoint]

// AcquirePoints returns a pooled []core.BusPoint of length n. Pass the
// returned pointer to ReleasePoints when the slice is no longer
// referenced (after encoding a response, not before). The slice must not
// be retained past release.
func AcquirePoints(n int) *[]core.BusPoint { return busPointPool.Acquire(n) }

// ReleasePoints returns a buffer obtained from AcquirePoints to the pool.
func ReleasePoints(s *[]core.BusPoint) { busPointPool.Release(s) }

// PointPoolAccounting exposes the shared bus-point pool's acquire and
// release counts. The pool's buffers are strictly request-scoped, so at
// quiescence acquires-releases is the number of leaked buffers — the
// chaos and fault-injection smokes assert it stays zero even with
// panics injected per grid point.
func PointPoolAccounting() (acquires, releases uint64) { return busPointPool.Accounting() }
