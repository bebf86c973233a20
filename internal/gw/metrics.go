package gw

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The gateway's /metrics page, Prometheus text format, byte-stable
// ordering: backends render in configuration order, families in fixed
// order, and every family always renders its HELP/TYPE header even at
// zero — scrapes and drift tests see the full surface from the first
// request.

// classLabels names the responses array's status-class buckets.
var classLabels = [3]string{"2xx", "4xx", "5xx"}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.writeMetrics(w)
}

// writeMetrics renders every gateway metrics family to w.
func (g *Gateway) writeMetrics(w io.Writer) {
	backends := g.snapshot()

	fmt.Fprintln(w, "# HELP swcc_gw_backend_healthy Whether the backend is currently routed to (1) or excluded (0).")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_healthy gauge")
	healthy := 0
	for _, b := range backends {
		v := 0
		if b.healthy.Load() {
			v = 1
			healthy++
		}
		fmt.Fprintf(w, "swcc_gw_backend_healthy{backend=%q} %d\n", b.url, v)
	}

	fmt.Fprintln(w, "# HELP swcc_gw_healthy_backends Backends currently in the routing set.")
	fmt.Fprintln(w, "# TYPE swcc_gw_healthy_backends gauge")
	fmt.Fprintf(w, "swcc_gw_healthy_backends %d\n", healthy)

	fmt.Fprintln(w, "# HELP swcc_gw_backend_weight Effective rendezvous weight per backend (configured, else 1).")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_weight gauge")
	for _, b := range backends {
		fmt.Fprintf(w, "swcc_gw_backend_weight{backend=%q} %s\n", b.url, strconv.FormatFloat(b.effWeight(), 'g', -1, 64))
	}

	fmt.Fprintln(w, "# HELP swcc_gw_routes_total Requests answered by each backend.")
	fmt.Fprintln(w, "# TYPE swcc_gw_routes_total counter")
	for _, b := range backends {
		fmt.Fprintf(w, "swcc_gw_routes_total{backend=%q} %d\n", b.url, b.routes.Load())
	}

	fmt.Fprintln(w, "# HELP swcc_gw_backend_sends_total Proxied attempts issued to each backend, retries and hedges included.")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_sends_total counter")
	for _, b := range backends {
		fmt.Fprintf(w, "swcc_gw_backend_sends_total{backend=%q} %d\n", b.url, b.sends.Load())
	}

	fmt.Fprintln(w, "# HELP swcc_gw_backend_responses_total Backend responses by status class.")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_responses_total counter")
	for _, b := range backends {
		for i, class := range classLabels {
			fmt.Fprintf(w, "swcc_gw_backend_responses_total{backend=%q,class=%q} %d\n",
				b.url, class, b.responses[i].Load())
		}
	}

	fmt.Fprintln(w, "# HELP swcc_gw_retries_total Proxied attempts beyond the first, after a backend transport failure.")
	fmt.Fprintln(w, "# TYPE swcc_gw_retries_total counter")
	fmt.Fprintf(w, "swcc_gw_retries_total %d\n", g.retries.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_hedges_total Hedge attempts launched: the primary outlived the hedge delay and a duplicate raced the next-ranked backend.")
	fmt.Fprintln(w, "# TYPE swcc_gw_hedges_total counter")
	fmt.Fprintf(w, "swcc_gw_hedges_total %d\n", g.hedges.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_hedge_wins_total Hedged requests where the hedge's response beat the primary's.")
	fmt.Fprintln(w, "# TYPE swcc_gw_hedge_wins_total counter")
	fmt.Fprintf(w, "swcc_gw_hedge_wins_total %d\n", g.hedgeWins.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_respills_total Requests routed off their rendezvous owner because it was excluded.")
	fmt.Fprintln(w, "# TYPE swcc_gw_respills_total counter")
	fmt.Fprintf(w, "swcc_gw_respills_total %d\n", g.respills.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_key_fallbacks_total Requests keyed by raw body bytes because canonical parsing failed.")
	fmt.Fprintln(w, "# TYPE swcc_gw_key_fallbacks_total counter")
	fmt.Fprintf(w, "swcc_gw_key_fallbacks_total %d\n", g.keyFallbacks.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_bad_gateway_total Gateway-minted 502s: every candidate backend failed.")
	fmt.Fprintln(w, "# TYPE swcc_gw_bad_gateway_total counter")
	fmt.Fprintf(w, "swcc_gw_bad_gateway_total %d\n", g.badGateway.Load())

	fmt.Fprintln(w, "# HELP swcc_gw_reloads_total Backend-set reloads applied without a restart.")
	fmt.Fprintln(w, "# TYPE swcc_gw_reloads_total counter")
	fmt.Fprintf(w, "swcc_gw_reloads_total %d\n", g.reloads.Load())

	var entries int
	var hits, misses, invalidations int64
	if g.cache != nil {
		entries, hits, misses, invalidations = g.cache.stats()
	}
	fmt.Fprintln(w, "# HELP swcc_gw_response_cache_entries Responses currently held in the gateway response cache.")
	fmt.Fprintln(w, "# TYPE swcc_gw_response_cache_entries gauge")
	fmt.Fprintf(w, "swcc_gw_response_cache_entries %d\n", entries)

	fmt.Fprintln(w, "# HELP swcc_gw_response_cache_hits_total Cacheable requests answered from the gateway response cache.")
	fmt.Fprintln(w, "# TYPE swcc_gw_response_cache_hits_total counter")
	fmt.Fprintf(w, "swcc_gw_response_cache_hits_total %d\n", hits)

	fmt.Fprintln(w, "# HELP swcc_gw_response_cache_misses_total Cacheable requests the response cache could not answer.")
	fmt.Fprintln(w, "# TYPE swcc_gw_response_cache_misses_total counter")
	fmt.Fprintf(w, "swcc_gw_response_cache_misses_total %d\n", misses)

	fmt.Fprintln(w, "# HELP swcc_gw_response_cache_invalidations_total Wholesale response-cache drops after a backend-set change.")
	fmt.Fprintln(w, "# TYPE swcc_gw_response_cache_invalidations_total counter")
	fmt.Fprintf(w, "swcc_gw_response_cache_invalidations_total %d\n", invalidations)

	fmt.Fprintln(w, "# HELP swcc_gw_backend_cache_entries Memo-cache entries per backend, from its last /readyz probe.")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_cache_entries gauge")
	for _, b := range backends {
		var demand, curve int
		if c := b.warmth.Load(); c != nil {
			demand, curve = c.DemandEntries, c.CurveEntries
		}
		fmt.Fprintf(w, "swcc_gw_backend_cache_entries{backend=%q,cache=\"demand\"} %d\n", b.url, demand)
		fmt.Fprintf(w, "swcc_gw_backend_cache_entries{backend=%q,cache=\"curve\"} %d\n", b.url, curve)
	}

	fmt.Fprintln(w, "# HELP swcc_gw_backend_hit_ratio Lifetime cache hit ratio per backend, from its last /readyz probe.")
	fmt.Fprintln(w, "# TYPE swcc_gw_backend_hit_ratio gauge")
	for _, b := range backends {
		ratio := 0.0
		if c := b.warmth.Load(); c != nil {
			ratio = c.HitRatio
		}
		fmt.Fprintf(w, "swcc_gw_backend_hit_ratio{backend=%q} %s\n", b.url, strconv.FormatFloat(ratio, 'g', -1, 64))
	}
}
