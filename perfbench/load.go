package main

import (
	"sync"
	"time"
)

// clients is the closed-loop client count of every serving workload:
// callers of cohered wait for each answer, and 2 equals the cores of
// the machine the bounds were set on.
const clients = 2

// window is one timed closed-loop phase's outcome.
type window struct {
	requests, failed, points int
	elapsed                  float64 // seconds, first send to last answer
	dur                      time.Duration
	parts                    [slices]part // successful requests, by completion time
	heapMB                   float64
	gcs                      int
}

// part is one slice of a window: the latencies of the requests that
// completed in it and the work they carried.
type part struct {
	lat      latHist
	requests int
	points   float64
}

// slices is how many equal parts of a window the serving metrics are
// computed over; each metric reports the median part, so a burst of
// interference from outside the benchmark moves one part, not the
// result.
const slices = 10

// sliced returns, for each of the window's parts, the units of work per
// second and the latency quantiles (seconds).
func (w *window) sliced(points bool) (rate, p50, p90, p99 []float64) {
	partS := w.dur.Seconds() / slices
	for k := range w.parts {
		p := &w.parts[k]
		work := float64(p.requests)
		if points {
			work = p.points
		}
		rate = append(rate, work/partS)
		p50 = append(p50, p.lat.quantile(0.5)/1e9)
		p90 = append(p90, p.lat.quantile(0.9)/1e9)
		p99 = append(p99, p.lat.quantile(0.99)/1e9)
	}
	return rate, p50, p90, p99
}

// samples is the number of successful requests in the window.
func (w *window) samples() int {
	n := 0
	for k := range w.parts {
		n += w.parts[k].requests
	}
	return n
}

// do sends one request as worker w with request ID id ("" when
// untraced) and reports whether the answer was right and how many model
// points it carried.
type doFunc func(w int, id string) (ok bool, points int)

// loadWindow runs `clients` closed-loop workers for dur. When traced,
// each request carries a benchmark trace ID and gets a client span.
// Each worker records into fixed-size histograms allocated before the
// heap peak is sampled, so the benchmark's own memory neither grows
// with throughput nor adds to the reading during the window.
func loadWindow(dur time.Duration, rec *recorder, traced bool, do doFunc) *window {
	var wg sync.WaitGroup
	outs := make([]window, clients)
	hp := startHeapPeak()
	start := time.Now()
	deadline := start.Add(dur)
	partDur := dur / slices
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := &outs[w]
			for n := 0; time.Now().Before(deadline); n++ {
				id := ""
				if traced {
					id = traceID(w, n)
				}
				t0 := time.Now()
				ok, pts := do(w, id)
				t1 := time.Now()
				mine.requests++
				if !ok {
					mine.failed++
					continue
				}
				mine.points += pts
				if traced {
					rec.add(id, "client", t0, t1)
				}
				k := min(int(t1.Sub(start)/partDur), slices-1)
				p := &mine.parts[k]
				p.lat.add(t1.Sub(t0))
				p.requests++
				p.points += float64(pts)
			}
		}(w)
	}
	wg.Wait()
	out := &window{dur: dur, elapsed: time.Since(start).Seconds()}
	out.heapMB, out.gcs = hp.finish()
	for w := range outs {
		out.requests += outs[w].requests
		out.failed += outs[w].failed
		out.points += outs[w].points
		for k := range out.parts {
			p, q := &out.parts[k], &outs[w].parts[k]
			p.lat.merge(&q.lat)
			p.requests += q.requests
			p.points += q.points
		}
	}
	return out
}

// addEndToEnd reports the end-to-end metrics of a serving workload,
// each the median over the window's slices. points selects model
// points rather than requests as the unit of work.
func addEndToEnd(res *result, setups []float64, win *window, points bool) {
	rate, p50, p90, p99 := win.sliced(points)
	n := win.samples()
	if float64(n)/float64(len(rate))*0.01 < 10 {
		res.note("only %d latency samples: a part's p99 has fewer than ten beyond it", n)
	}
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("ops_per_s", median(rate), "1/s", n)
	res.add("latency_p50_ms", median(p50)*1000, "ms", n)
	res.add("latency_p90_ms", median(p90)*1000, "ms", n)
	res.add("heap_peak_mb", win.heapMB, "MB", win.gcs)
	// p99 rides on the host's slow periods (GC cycles stretch and catch
	// more requests), so it is reported but not a bounded metric.
	res.note("latency_p99_ms %.6g (median part; %d samples, not bounded)", median(p99)*1000, n)
}
