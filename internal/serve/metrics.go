package serve

import (
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"swcc/internal/fault"
	"swcc/internal/obs"
	"swcc/internal/sweep"
)

// latencyBuckets are the histogram upper bounds in seconds, log-spaced.
// Model solves are sub-millisecond when cached, so the low end is
// fine-grained; the top buckets catch limiter waits and big sensitivity
// grids. Every histogram family (aggregate, per-endpoint, per-stage)
// shares this layout so distributions are comparable across series.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// stageValidate is the serving layer's own pipeline stage: decoding and
// validating the request body before any model work. The remaining
// stages (cache lookup, singleflight wait, cold solve) are reported by
// the evaluator via sweep.Observer.
const stageValidate = "validate"

// stageNames is every value of the swcc_stage_duration_seconds stage
// label, in render order. Fixed at construction so stage recording is a
// lock-free map read and /metrics output is byte-stable.
var stageNames = []string{
	stageValidate, sweep.StageCacheLookup, sweep.StageDedupWait, sweep.StageSolve,
}

// metrics holds the server's own series: request counters by (path,
// code), in-flight gauges, and latency histograms (aggregate, per
// endpoint, per pipeline stage). Recording and rendering take no lock:
// the counters are atomics and obs.Histogram adds atomically, so a
// scrape is a point-in-time snapshot, approximately consistent under
// traffic (DESIGN.md §9).
type metrics struct {
	requests sync.Map // [2]string{path, code} -> *atomic.Uint64
	inFlight atomic.Int64

	// Overload accounting: solveInFlight counts solves holding a limiter
	// slot, queueDepth counts admitted requests waiting for one, sheds
	// counts requests rejected by admission control before body decode,
	// and cancels counts requests abandoned by their client (context
	// cancelled while queued or mid-solve).
	solveInFlight atomic.Int64
	queueDepth    atomic.Int64
	sheds         atomic.Uint64
	cancels       atomic.Uint64

	latency *obs.Histogram            // all requests, any path
	byPath  map[string]*obs.Histogram // per metricPaths value; read-only after construction
	byStage map[string]*obs.Histogram // per pipeline stage; read-only after construction
}

// metricPaths is every value of the path label, sorted (the render
// order). It caps label cardinality: anything unrouted counts as
// "other" instead of minting a series per probed URL.
var metricPaths = []string{
	"/healthz", "/metrics", "/readyz", "/v1/advisor", "/v1/bus",
	"/v1/network", "/v1/sensitivity", "/v1/sweep", "other",
}

func newMetrics() *metrics {
	m := &metrics{
		latency: obs.NewHistogram(latencyBuckets),
		byPath:  map[string]*obs.Histogram{},
		byStage: map[string]*obs.Histogram{},
	}
	for _, p := range metricPaths {
		m.byPath[p] = obs.NewHistogram(latencyBuckets)
	}
	for _, st := range stageNames {
		m.byStage[st] = obs.NewHistogram(latencyBuckets)
	}
	return m
}

func (m *metrics) requestStarted() {
	m.inFlight.Add(1)
}

func (m *metrics) requestDone(path string, code int, seconds float64) {
	m.inFlight.Add(-1)
	p := path
	if m.byPath[p] == nil {
		p = "other"
	}
	key := [2]string{p, strconv.Itoa(code)}
	c, ok := m.requests.Load(key)
	if !ok {
		c, _ = m.requests.LoadOrStore(key, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
	m.latency.Observe(seconds)
	m.byPath[p].Observe(seconds)
}

// observeStage records one pipeline-stage duration. Unknown stage names
// are dropped rather than minting series, keeping the stage label set
// exactly what OPERATIONS.md documents.
func (m *metrics) observeStage(stage string, seconds float64) {
	if h := m.byStage[stage]; h != nil {
		h.Observe(seconds)
	}
}

// MetricFamilies declares the daemon's /metrics page: every family, in
// render order. obs.Page emits nothing else, and the drift check in
// internal/obs holds OPERATIONS.md to this table.
var MetricFamilies = []obs.Family{
	{Name: "swcc_mva_solves_total", Type: obs.TypeCounter, Help: "SingleServerMVA recursions (cache misses)."},
	{Name: "swcc_mva_cache_hits_total", Type: obs.TypeCounter, Help: "MVA curve queries served from the memo."},
	{Name: "swcc_curve_extends_total", Type: obs.TypeCounter, Help: "MVA solves resumed from a cached shorter curve."},
	{Name: "swcc_curve_full_solves_total", Type: obs.TypeCounter, Help: "MVA solves started cold from population 1."},
	{Name: "swcc_cache_entries", Type: obs.TypeGauge, Help: "Current entries per evaluator cache."},
	{Name: "swcc_singleflight_dedups_total", Type: obs.TypeCounter, Help: "Concurrent misses served by another goroutine's in-flight solve."},
	{Name: "swcc_cache_evictions_total", Type: obs.TypeCounter, Help: "Entries dropped by the bounded-capacity CLOCK policy."},
	{Name: "swcc_cache_shards", Type: obs.TypeGauge, Help: "Lock-striped shards per evaluator cache."},
	{Name: "swcc_cache_shard_entries", Type: obs.TypeGauge, Help: "Current entries per cache shard."},
	{Name: "swcc_http_requests_total", Type: obs.TypeCounter, Help: "Completed requests by path and status code."},
	{Name: "swcc_http_in_flight", Type: obs.TypeGauge, Help: "Requests currently being served."},
	{Name: "swcc_solve_in_flight", Type: obs.TypeGauge, Help: "Model solves currently holding a concurrency-limiter slot."},
	{Name: "swcc_solve_queue_depth", Type: obs.TypeGauge, Help: "Admitted requests currently waiting for a concurrency-limiter slot."},
	{Name: "swcc_http_sheds_total", Type: obs.TypeCounter, Help: "Requests rejected 503 by admission control before body decode (queue full)."},
	{Name: "swcc_http_cancels_total", Type: obs.TypeCounter, Help: "Requests abandoned by their client while queued or mid-solve."},
	{Name: "swcc_fault_injections_total", Type: obs.TypeCounter, Help: "Faults fired by the configured injector (always 0 without -fault-* flags)."},
	{Name: "swcc_http_request_duration_seconds", Type: obs.TypeHistogram, Help: "Request latency."},
	{Name: "swcc_http_endpoint_duration_seconds", Type: obs.TypeHistogram, Help: "Request latency by endpoint."},
	{Name: "swcc_stage_duration_seconds", Type: obs.TypeHistogram, Help: "Wall time per request pipeline stage (validate, cache_lookup, singleflight_wait, solve)."},
}

// write renders MetricFamilies from the evaluator's counters and the
// server's own. Labeled series are sorted, so two scrapes of an idle
// server are byte-identical. inj may be nil (no fault injection); its
// family still renders, at zero, so dashboards need no conditionals.
func (m *metrics) write(w io.Writer, ev *sweep.Evaluator, inj *fault.Injector) {
	st := ev.Stats()
	p := obs.NewPage(w, MetricFamilies)

	p.Family("swcc_mva_solves_total").Uint(st.MVASolves)
	p.Family("swcc_mva_cache_hits_total").Uint(st.MVAHits)
	p.Family("swcc_curve_extends_total").Uint(st.CurveExtends)
	p.Family("swcc_curve_full_solves_total").Uint(st.CurveFullSolves)
	p.Family("swcc_cache_entries").Int(int64(st.CurveEntries), "cache", "mva")
	p.Family("swcc_singleflight_dedups_total").Uint(st.MVADedups, "cache", "mva")
	p.Family("swcc_cache_evictions_total").Uint(st.CurveEvictions, "cache", "mva")
	p.Family("swcc_cache_shards").Int(int64(st.Shards))
	p.Family("swcc_cache_shard_entries")
	for i, n := range ev.ShardSizes() {
		p.Int(int64(n), "cache", "mva", "shard", strconv.Itoa(i))
	}

	var keys [][2]string
	m.requests.Range(func(k, _ any) bool {
		keys = append(keys, k.([2]string))
		return true
	})
	// sync.Map iteration order is nondeterministic; sorting by (path,
	// code) here is what keeps scrapes byte-stable.
	slices.SortFunc(keys, func(a, b [2]string) int { return slices.Compare(a[:], b[:]) })
	p.Family("swcc_http_requests_total")
	for _, k := range keys {
		c, _ := m.requests.Load(k)
		p.Uint(c.(*atomic.Uint64).Load(), "path", k[0], "code", k[1])
	}
	p.Family("swcc_http_in_flight").Int(m.inFlight.Load())
	p.Family("swcc_solve_in_flight").Int(m.solveInFlight.Load())
	p.Family("swcc_solve_queue_depth").Int(m.queueDepth.Load())
	p.Family("swcc_http_sheds_total").Uint(m.sheds.Load())
	p.Family("swcc_http_cancels_total").Uint(m.cancels.Load())

	lat, errs, panics := inj.Counts()
	p.Family("swcc_fault_injections_total")
	p.Uint(errs, "kind", "error")
	p.Uint(lat, "kind", "latency")
	p.Uint(panics, "kind", "panic")

	p.Family("swcc_http_request_duration_seconds").Histogram(m.latency.Snapshot())
	p.Family("swcc_http_endpoint_duration_seconds")
	for _, path := range metricPaths {
		p.Histogram(m.byPath[path].Snapshot(), "path", path)
	}
	p.Family("swcc_stage_duration_seconds")
	for _, stage := range stageNames {
		p.Histogram(m.byStage[stage].Snapshot(), "stage", stage)
	}
}
