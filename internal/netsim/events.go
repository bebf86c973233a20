package netsim

import "math/bits"

// Both simulators step sparsely: a cycle visits only the processors
// whose phase ends in it and the links that hold packets, never the idle
// rest. The random draws must still happen in the order a full sweep in
// ascending processor (or link) index would make them, because that
// order is what fixes every output bit; the two structures below hand
// out their members in exactly that order.

// wakeup is a processor's next phase change.
type wakeup struct{ at, proc int }

// wakeHeap is a binary min-heap of wake-ups ordered by (cycle,
// processor): popping every entry due at a cycle yields the due
// processors in ascending index.
type wakeHeap []wakeup

func (h wakeHeap) less(a, b int) bool {
	return h[a].at < h[b].at || (h[a].at == h[b].at && h[a].proc < h[b].proc)
}

func (h *wakeHeap) push(w wakeup) {
	*h = append(*h, w)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// due reports whether the earliest wake-up is at cycle now.
func (h wakeHeap) due(now int) bool { return len(h) > 0 && h[0].at == now }

func (h *wakeHeap) pop() wakeup {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && q.less(l, least) {
			least = l
		}
		if r < last && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// bitset is a set of small non-negative integers, read in ascending
// order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// each calls f on every member in ascending order. f may clear members
// and set members of other sets; members it sets in b itself are not
// guaranteed to be visited.
func (b bitset) each(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
