package serve

import (
	"fmt"
	"io"
	"sort"
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

// metrics is the server's hand-rolled metric registry: request counters
// by (path, code), an in-flight gauge, and latency histograms
// (aggregate, per endpoint, per pipeline stage). It renders Prometheus
// text format directly — no dependencies, byte-stable output ordering.
//
// Everything on the hot path is lock-free: the gauge and per-(path,
// code) counters are atomics, and the histograms are obs.Histogram
// (one atomic add per observation). Rendering takes no lock either — a
// scrape is a point-in-time snapshot that may be approximately
// consistent under concurrent traffic (see internal/obs), which is the
// deliberate trade for never serializing request completions on a
// registry mutex (DESIGN.md §9).
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
	byPath  map[string]*obs.Histogram // per known endpoint (+ "other"); read-only after construction
	byStage map[string]*obs.Histogram // per pipeline stage; read-only after construction
	paths   []string                  // sorted byPath keys, the render order
}

func newMetrics() *metrics {
	m := &metrics{
		latency: obs.NewHistogram(latencyBuckets),
		byPath:  map[string]*obs.Histogram{},
		byStage: map[string]*obs.Histogram{},
	}
	for p := range knownPaths {
		m.byPath[p] = obs.NewHistogram(latencyBuckets)
	}
	m.byPath[pathOther] = obs.NewHistogram(latencyBuckets)
	for p := range m.byPath {
		m.paths = append(m.paths, p)
	}
	sort.Strings(m.paths)
	for _, st := range stageNames {
		m.byStage[st] = obs.NewHistogram(latencyBuckets)
	}
	return m
}

// pathOther is the label value capping endpoint cardinality: anything
// unrouted counts here instead of minting a series per probed URL.
const pathOther = "other"

// knownPaths caps label cardinality: anything unrouted counts as "other".
var knownPaths = map[string]bool{
	"/healthz": true, "/readyz": true, "/metrics": true,
	"/v1/bus": true, "/v1/network": true,
	"/v1/advisor": true, "/v1/sensitivity": true,
	"/v1/sweep": true,
}

func metricPath(path string) string {
	if knownPaths[path] {
		return path
	}
	return pathOther
}

func (m *metrics) requestStarted() {
	m.inFlight.Add(1)
}

func (m *metrics) requestDone(path string, code int, seconds float64) {
	m.inFlight.Add(-1)
	p := metricPath(path)
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

// writeHistogram renders one histogram family member in Prometheus text
// form. labels is either empty or a `key="value",` prefix placed before
// the le label.
func writeHistogram(w io.Writer, name, labels string, s obs.Snapshot) {
	for i, ub := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			name, labels, strconv.FormatFloat(ub, 'g', -1, 64), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, s.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, bracketed(labels), s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, bracketed(labels), s.Count)
}

// bracketed wraps a non-empty `key="value",` label prefix into the
// `{key="value"}` form used on _sum/_count series.
func bracketed(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels[:len(labels)-1] + "}"
}

// write renders the registry plus the evaluator's cache counters, the
// singleflight/eviction series, the per-shard size gauges, and the
// overload/fault series in Prometheus text exposition format. The
// output is byte-stable: families render in a fixed order and every
// labeled family's series are sorted, so two scrapes of an idle server
// are byte-identical (the golden doc-drift and stability tests depend
// on this). inj may be nil (no fault injection configured); its family
// still renders, at zero, so dashboards need no conditionals.
func (m *metrics) write(w io.Writer, ev *sweep.Evaluator, inj *fault.Injector) {
	st := ev.Stats()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("swcc_mva_solves_total", "SingleServerMVA recursions (cache misses).", st.MVASolves)
	counter("swcc_mva_cache_hits_total", "MVA curve queries served from the memo.", st.MVAHits)
	counter("swcc_curve_extends_total", "MVA solves resumed from a cached shorter curve.", st.CurveExtends)
	counter("swcc_curve_full_solves_total", "MVA solves started cold from population 1.", st.CurveFullSolves)

	fmt.Fprintf(w, "# HELP swcc_cache_entries Current entries per evaluator cache.\n# TYPE swcc_cache_entries gauge\n")
	fmt.Fprintf(w, "swcc_cache_entries{cache=\"mva\"} %d\n", st.CurveEntries)

	fmt.Fprintf(w, "# HELP swcc_singleflight_dedups_total Concurrent misses served by another goroutine's in-flight solve.\n# TYPE swcc_singleflight_dedups_total counter\n")
	fmt.Fprintf(w, "swcc_singleflight_dedups_total{cache=\"mva\"} %d\n", st.MVADedups)

	fmt.Fprintf(w, "# HELP swcc_cache_evictions_total Entries dropped by the bounded-capacity CLOCK policy.\n# TYPE swcc_cache_evictions_total counter\n")
	fmt.Fprintf(w, "swcc_cache_evictions_total{cache=\"mva\"} %d\n", st.CurveEvictions)

	fmt.Fprintf(w, "# HELP swcc_cache_shards Lock-striped shards per evaluator cache.\n# TYPE swcc_cache_shards gauge\nswcc_cache_shards %d\n", st.Shards)
	fmt.Fprintf(w, "# HELP swcc_cache_shard_entries Current entries per cache shard.\n# TYPE swcc_cache_shard_entries gauge\n")
	for i, n := range ev.ShardSizes() {
		fmt.Fprintf(w, "swcc_cache_shard_entries{cache=\"mva\",shard=\"%d\"} %d\n", i, n)
	}

	fmt.Fprintf(w, "# HELP swcc_http_requests_total Completed requests by path and status code.\n# TYPE swcc_http_requests_total counter\n")
	type reqCount struct {
		key [2]string
		n   uint64
	}
	var reqs []reqCount
	m.requests.Range(func(k, v any) bool {
		reqs = append(reqs, reqCount{k.([2]string), v.(*atomic.Uint64).Load()})
		return true
	})
	// sync.Map iteration order is nondeterministic; sorting here is what
	// keeps scrapes byte-stable.
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].key[0] != reqs[j].key[0] {
			return reqs[i].key[0] < reqs[j].key[0]
		}
		return reqs[i].key[1] < reqs[j].key[1]
	})
	for _, r := range reqs {
		fmt.Fprintf(w, "swcc_http_requests_total{path=%q,code=%q} %d\n", r.key[0], r.key[1], r.n)
	}

	fmt.Fprintf(w, "# HELP swcc_http_in_flight Requests currently being served.\n# TYPE swcc_http_in_flight gauge\nswcc_http_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP swcc_solve_in_flight Model solves currently holding a concurrency-limiter slot.\n# TYPE swcc_solve_in_flight gauge\nswcc_solve_in_flight %d\n", m.solveInFlight.Load())
	fmt.Fprintf(w, "# HELP swcc_solve_queue_depth Admitted requests currently waiting for a concurrency-limiter slot.\n# TYPE swcc_solve_queue_depth gauge\nswcc_solve_queue_depth %d\n", m.queueDepth.Load())
	fmt.Fprintf(w, "# HELP swcc_http_sheds_total Requests rejected 503 by admission control before body decode (queue full).\n# TYPE swcc_http_sheds_total counter\nswcc_http_sheds_total %d\n", m.sheds.Load())
	fmt.Fprintf(w, "# HELP swcc_http_cancels_total Requests abandoned by their client while queued or mid-solve.\n# TYPE swcc_http_cancels_total counter\nswcc_http_cancels_total %d\n", m.cancels.Load())

	lat, errs, panics := inj.Counts()
	fmt.Fprintf(w, "# HELP swcc_fault_injections_total Faults fired by the configured injector (always 0 without -fault-* flags).\n# TYPE swcc_fault_injections_total counter\n")
	fmt.Fprintf(w, "swcc_fault_injections_total{kind=\"error\"} %d\n", errs)
	fmt.Fprintf(w, "swcc_fault_injections_total{kind=\"latency\"} %d\n", lat)
	fmt.Fprintf(w, "swcc_fault_injections_total{kind=\"panic\"} %d\n", panics)

	fmt.Fprintf(w, "# HELP swcc_http_request_duration_seconds Request latency.\n# TYPE swcc_http_request_duration_seconds histogram\n")
	writeHistogram(w, "swcc_http_request_duration_seconds", "", m.latency.Snapshot())

	fmt.Fprintf(w, "# HELP swcc_http_endpoint_duration_seconds Request latency by endpoint.\n# TYPE swcc_http_endpoint_duration_seconds histogram\n")
	for _, p := range m.paths {
		writeHistogram(w, "swcc_http_endpoint_duration_seconds",
			fmt.Sprintf("path=%q,", p), m.byPath[p].Snapshot())
	}

	fmt.Fprintf(w, "# HELP swcc_stage_duration_seconds Wall time per request pipeline stage (validate, cache_lookup, singleflight_wait, solve).\n# TYPE swcc_stage_duration_seconds histogram\n")
	for _, st := range stageNames {
		writeHistogram(w, "swcc_stage_duration_seconds",
			fmt.Sprintf("stage=%q,", st), m.byStage[st].Snapshot())
	}
}
