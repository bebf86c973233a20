package gw

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"swcc/internal/serve"
)

// probe health-checks one backend against its /readyz: an HTTP 200
// means ready. A not-ready or unreachable backend accumulates
// consecutive failures and is excluded at FailThreshold; a single
// success re-admits it — exclusion is cautious, re-admission eager,
// because a re-admitted backend that flaps just gets excluded again
// while a healthy backend kept excluded sheds its whole key range onto
// the survivors for no reason. The warmth counters and model
// fingerprint in the body are recorded either way (a shedding
// backend still reports its cache), so /healthz aggregation, the
// metrics page, and the response cache reflect the fleet's real state.
func (g *Gateway) probe(ctx context.Context, b *backend) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.CheckTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		g.probeFailed(b, err)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.probeFailed(b, err)
		return
	}
	defer resp.Body.Close()
	var rz serve.ReadyzResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&rz); err == nil {
		warmth := rz.Cache
		b.warmth.Store(&warmth)
		if rz.ModelFingerprint != "" {
			fp := rz.ModelFingerprint
			b.modelFP.Store(&fp)
		}
	}
	if resp.StatusCode != http.StatusOK {
		g.probeFailed(b, nil)
		return
	}
	b.fails.Store(0)
	if b.healthy.CompareAndSwap(false, true) {
		g.log.Info("backend re-admitted", "backend", b.url)
	}
}

// probeFailed records one failed probe and excludes the backend once
// failures reach the threshold.
func (g *Gateway) probeFailed(b *backend, err error) {
	if b.fails.Add(1) >= int32(g.cfg.FailThreshold) {
		if b.healthy.CompareAndSwap(true, false) {
			g.log.Warn("backend excluded", "backend", b.url, "err", err)
		}
	}
}

// backendHealth is one backend's row in the gateway's /healthz body.
type backendHealth struct {
	URL     string             `json:"url"`
	Healthy bool               `json:"healthy"`
	Weight  float64            `json:"weight"`
	Routes  int64              `json:"routes"`
	Sends   int64              `json:"sends"`
	Cache   *serve.ReadyzCache `json:"cache,omitempty"`
}

// gwHealth is the gateway's /healthz body: its own liveness plus the
// aggregated fleet view.
type gwHealth struct {
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Policy        string          `json:"policy"`
	Reloads       int64           `json:"reloads"`
	Healthy       int             `json:"healthy_backends"`
	Backends      []backendHealth `json:"backends"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := gwHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(g.start).Seconds(),
		Policy:        g.cfg.Policy,
		Reloads:       g.reloads.Load(),
	}
	for _, b := range g.snapshot() {
		row := backendHealth{
			URL: b.url, Healthy: b.healthy.Load(), Weight: b.effWeight(),
			Routes: b.routes.Load(), Sends: b.sends.Load(), Cache: b.warmth.Load(),
		}
		if row.Healthy {
			h.Healthy++
		}
		h.Backends = append(h.Backends, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleReadyz reports the gateway ready iff at least one backend is
// healthy: a gateway with zero live backends should be drained by its
// own front tier, not fed requests it can only 502.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, b := range g.snapshot() {
		if b.healthy.Load() {
			healthy++
		}
	}
	code := http.StatusOK
	ready := true
	if healthy == 0 {
		code = http.StatusServiceUnavailable
		ready = false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"ready": ready, "healthy_backends": healthy})
}
