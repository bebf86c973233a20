package gw

import (
	"io"
	"net/http"

	"swcc/internal/obs"
)

// MetricFamilies declares the gateway's /metrics page: every family, in
// render order, each rendered even at zero. obs.Page emits nothing
// else, and the drift check in internal/obs holds OPERATIONS.md to it.
var MetricFamilies = []obs.Family{
	{Name: "swcc_gw_backend_healthy", Type: obs.TypeGauge, Help: "Whether the backend is currently routed to (1) or excluded (0)."},
	{Name: "swcc_gw_healthy_backends", Type: obs.TypeGauge, Help: "Backends currently in the routing set."},
	{Name: "swcc_gw_routes_total", Type: obs.TypeCounter, Help: "Requests answered by each backend."},
	{Name: "swcc_gw_backend_sends_total", Type: obs.TypeCounter, Help: "Proxied attempts issued to each backend, retries and hedges included."},
	{Name: "swcc_gw_backend_responses_total", Type: obs.TypeCounter, Help: "Backend responses by status class."},
	{Name: "swcc_gw_retries_total", Type: obs.TypeCounter, Help: "Proxied attempts beyond the first, after a backend transport failure."},
	{Name: "swcc_gw_hedges_total", Type: obs.TypeCounter, Help: "Hedge attempts launched: the primary outlived the hedge delay and a duplicate raced the next-ranked backend."},
	{Name: "swcc_gw_hedge_wins_total", Type: obs.TypeCounter, Help: "Hedged requests where the hedge's response beat the primary's."},
	{Name: "swcc_gw_respills_total", Type: obs.TypeCounter, Help: "Requests routed off their rendezvous owner because it was excluded."},
	{Name: "swcc_gw_key_fallbacks_total", Type: obs.TypeCounter, Help: "Requests keyed by raw body bytes because canonical parsing failed."},
	{Name: "swcc_gw_bad_gateway_total", Type: obs.TypeCounter, Help: "Gateway-minted 502s: every candidate backend failed."},
	{Name: "swcc_gw_reloads_total", Type: obs.TypeCounter, Help: "Backend-set reloads applied without a restart."},
}

// classLabels names the responses array's status-class buckets.
var classLabels = [3]string{"2xx", "4xx", "5xx"}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.writeMetrics(w)
}

// writeMetrics renders MetricFamilies to w, backends in configuration
// order, so the page is byte-stable.
func (g *Gateway) writeMetrics(w io.Writer) {
	backends := g.snapshot()
	p := obs.NewPage(w, MetricFamilies)

	p.Family("swcc_gw_backend_healthy")
	var healthy int64
	for _, b := range backends {
		var v int64
		if b.healthy.Load() {
			v = 1
			healthy++
		}
		p.Int(v, "backend", b.url)
	}
	p.Family("swcc_gw_healthy_backends").Int(healthy)
	p.Family("swcc_gw_routes_total")
	for _, b := range backends {
		p.Int(b.routes.Load(), "backend", b.url)
	}
	p.Family("swcc_gw_backend_sends_total")
	for _, b := range backends {
		p.Int(b.sends.Load(), "backend", b.url)
	}
	p.Family("swcc_gw_backend_responses_total")
	for _, b := range backends {
		for i, class := range classLabels {
			p.Int(b.responses[i].Load(), "backend", b.url, "class", class)
		}
	}

	p.Family("swcc_gw_retries_total").Int(g.retries.Load())
	p.Family("swcc_gw_hedges_total").Int(g.hedges.Load())
	p.Family("swcc_gw_hedge_wins_total").Int(g.hedgeWins.Load())
	p.Family("swcc_gw_respills_total").Int(g.respills.Load())
	p.Family("swcc_gw_key_fallbacks_total").Int(g.keyFallbacks.Load())
	p.Family("swcc_gw_bad_gateway_total").Int(g.badGateway.Load())
	p.Family("swcc_gw_reloads_total").Int(g.reloads.Load())
}
