package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latHist is a log-linear histogram of latencies in nanoseconds: below
// 2^histSub ns every value has its own bucket; above, each power of two
// is cut into 2^histSub equal buckets, so a bucket spans under 0.8% of
// the values in it. It has a fixed size: recording allocates nothing.
type latHist struct {
	counts [histLen]uint32
	n      int
}

const (
	histSub = 7  // 128 buckets per power of two
	histMax = 36 // latencies from 2^36 ns (69 s) up share the last bucket
	histLen = (histMax - histSub + 1) << histSub
)

// histIndex is the bucket of v ns.
func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	if v >= 1<<histMax {
		v = 1<<histMax - 1
	}
	e := bits.Len64(v) - histSub - 1
	return (e+1)<<histSub + int(v>>e) - 1<<histSub
}

// histBucket is bucket i's lowest value and width, in ns.
func histBucket(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	e := i>>histSub - 1
	m := i&(1<<histSub-1) + 1<<histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *latHist) add(d time.Duration) {
	h.counts[histIndex(uint64(max(d, 0)))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile (nearest rank) in ns, placed within its
// bucket by its rank among the bucket's values; 0 when h is empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	below := 0
	for i, c := range h.counts {
		if c == 0 || below+int(c) < rank {
			below += int(c)
			continue
		}
		lo, width := histBucket(i)
		return lo + width*(float64(rank-below)-0.5)/float64(c)
	}
	return 0
}

// median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, the spread rule the benchmark is judged by.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// heapPeak samples the live Go heap (bytes marked live by the last GC)
// until stopped, and reports the peak and how many GC cycles it saw.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	gcs  uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	startGCs := samples[1].Value.Uint64()
	h.peak = samples[0].Value.Uint64()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.gcs = samples[1].Value.Uint64() - startGCs
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MB and the GC count.
func (h *heapPeak) finish() (float64, int) {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20), int(h.gcs)
}
