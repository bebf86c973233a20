// Package gw is the cache-affinity front tier: an HTTP gateway that
// routes each request to one of N cohered backends by rendezvous-hashing
// the request's canonical cache key, so every backend's sharded memo
// cache stays hot for its own key range instead of all replicas
// re-solving the same (scheme, params) working set. The paper's
// economics apply to the serving tier itself: performance is dominated
// by how often a request lands where its answer is already cached, and
// who services a request determines whether it is a hit.
//
// The gateway health-checks each backend's /readyz, excludes backends
// that fail repeatedly, re-admits them on recovery, and re-spills an
// excluded backend's keys deterministically to the next-ranked backend
// (rendezvous hashing moves only the dead backend's keys — the survivors'
// caches keep their ranges). /v1/sweep batches are partitioned by owner
// backend and reassembled in caller order. A round-robin policy exists
// as the control arm for benchmarks.
//
// Front-tier hardening on top of routing: hedged requests (an
// idempotent request that outlives a fixed hedge delay is raced against
// the next-ranked backend, first response wins) and live backend-set
// reload without a restart. The gateway keeps no answers of its own: every
// request is forwarded, and the backend's curve cache is the only memo.
// Nor does it copy a backend's cache warmth: its probes read only the
// /readyz status, and each backend serves its own cache counters.
package gw

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swcc/internal/core"
	"swcc/internal/obs"
)

// Policy names accepted by Config.Policy.
const (
	// PolicyAffinity routes by rendezvous-hashing the canonical cache
	// key: equivalent requests always land on the same healthy backend.
	PolicyAffinity = "affinity"
	// PolicyRoundRobin rotates across healthy backends ignoring the
	// key — the control arm that shows what affinity buys.
	PolicyRoundRobin = "roundrobin"
)

// Config tunes the gateway. Backends is required; every other field
// falls back to the default documented on it.
type Config struct {
	// Backends lists the cohered base URLs ("http://127.0.0.1:8081" or
	// bare "127.0.0.1:8081") the gateway routes across: scheme http or
	// https, a host and optional port, nothing after. Required.
	Backends []string
	// Policy selects the routing policy: PolicyAffinity (default) or
	// PolicyRoundRobin.
	Policy string
	// CheckInterval is the per-backend /readyz probe period. Default 1s.
	CheckInterval time.Duration
	// CheckTimeout bounds one /readyz probe. Default 2s.
	CheckTimeout time.Duration
	// FailThreshold is how many consecutive probe failures exclude a
	// backend from routing; one success re-admits it. Default 2.
	FailThreshold int
	// RequestTimeout bounds one proxied request, all retries included.
	// Default 15s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body read at the gateway. Default 1 MiB.
	MaxBodyBytes int64
	// HedgeDelay, when positive, enables hedged requests: once an
	// idempotent request has been in flight this long, the gateway races
	// a duplicate against the next-ranked backend and streams whichever
	// response arrives first, cancelling the loser. Default 0: off.
	HedgeDelay time.Duration
	// Transport overrides the backend HTTP transport (tests). Default:
	// one shared keep-alive pool sized for the backend fleet.
	Transport http.RoundTripper
	// Logger receives structured lifecycle logs. Default slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyAffinity
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = time.Second
	}
	if c.CheckTimeout <= 0 {
		c.CheckTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
		}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// backend is one routed-to cohered process and its health state.
type backend struct {
	url  string // normalized base URL, no trailing slash
	hash uint64 // rendezvous identity

	healthy atomic.Bool
	fails   atomic.Int32       // consecutive probe failures
	stop    context.CancelFunc // cancels this backend's probe loop (guarded by Gateway.mu)

	routes    atomic.Int64    // requests answered from here
	sends     atomic.Int64    // proxied attempts issued here, hedges and retries included
	responses [3]atomic.Int64 // responses by class: 2xx/3xx, 4xx, 5xx
}

// score is the backend's rendezvous score for a key: the highest score
// owns the key, and the rest of the descending order is where the key
// re-spills when its owner is excluded. splitmix64 is a bijection, so
// two backends (distinct hashes) never tie.
func (b *backend) score(key uint64) uint64 { return splitmix64(key ^ b.hash) }

// classIdx buckets a status code into the responses array.
func classIdx(code int) int {
	switch {
	case code >= 500:
		return 2
	case code >= 400:
		return 1
	default:
		return 0
	}
}

// Gateway routes requests across the backend fleet. Construct with New;
// run health checks with Run; serve Handler.
type Gateway struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger
	start  time.Time

	// backends is the live routing set, swapped wholesale on Reload so
	// readers always see a consistent snapshot. mu serializes reloads
	// and probe-loop lifecycle; runCtx (set by Run) parents the probe
	// loops of backends added later.
	mu       sync.Mutex
	backends atomic.Pointer[[]*backend]
	runCtx   context.Context
	wg       sync.WaitGroup

	rr           atomic.Uint64 // round-robin cursor
	retries      atomic.Int64  // attempts beyond the first, after a transport failure
	respills     atomic.Int64  // requests routed off their owner because it was excluded
	keyFallbacks atomic.Int64  // bodies keyed by raw bytes because canonical parse failed
	badGateway   atomic.Int64  // 502s: every candidate backend failed
	hedges       atomic.Int64  // hedge attempts launched
	hedgeWins    atomic.Int64  // hedges whose response beat the primary's
	reloads      atomic.Int64  // successful backend-set reloads
}

// New validates cfg and returns a gateway. Backends start healthy (the
// first probe round corrects that within CheckInterval; Run and CheckNow
// both begin with an immediate round).
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gw: at least one backend required")
	}
	if cfg.Policy != PolicyAffinity && cfg.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("gw: unknown policy %q (want %s or %s)", cfg.Policy, PolicyAffinity, PolicyRoundRobin)
	}
	g := &Gateway{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		log:    cfg.Logger,
		start:  time.Now(),
	}
	set, err := parseBackends(cfg.Backends)
	if err != nil {
		return nil, err
	}
	g.backends.Store(&set)
	return g, nil
}

// parseBackends normalizes and validates a backend spec list into fresh
// backend values, rejecting empties, duplicates, and anything but an
// http or https scheme://host[:port]: request paths are appended to the
// base URL verbatim, so a path, query, fragment or user part would
// misroute every request, and a host holding "=" is a leftover weight
// suffix ("http://h=4"), not a host.
func parseBackends(specs []string) ([]*backend, error) {
	seen := map[string]bool{}
	var set []*backend
	for _, spec := range specs {
		u := strings.TrimSuffix(strings.TrimSpace(spec), "/")
		if u == "" {
			return nil, errors.New("gw: empty backend address")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		pu, err := url.Parse(u)
		if err != nil || pu.Scheme != "http" && pu.Scheme != "https" || pu.Host == "" ||
			strings.Contains(pu.Host, "=") || (&url.URL{Scheme: pu.Scheme, Host: pu.Host}).String() != u {
			return nil, fmt.Errorf("gw: backend %q: want http://host[:port] or https://host[:port], nothing after", spec)
		}
		if seen[u] {
			return nil, fmt.Errorf("gw: duplicate backend %s", u)
		}
		seen[u] = true
		bk := &backend{url: u, hash: core.HashBytes(core.FNVOffset, u)}
		bk.healthy.Store(true)
		set = append(set, bk)
	}
	return set, nil
}

// snapshot returns the current backend set. The slice is immutable —
// Reload swaps in a fresh one — so callers may iterate without locks.
func (g *Gateway) snapshot() []*backend {
	return *g.backends.Load()
}

// Run drives the per-backend health-check loops until ctx is done,
// starting with an immediate probe round so a dead backend is excluded
// before the first tick. Backends added by a later Reload get their
// probe loops here too. It blocks; callers run it in a goroutine.
func (g *Gateway) Run(ctx context.Context) {
	g.mu.Lock()
	g.runCtx = ctx
	for _, b := range g.snapshot() {
		g.startProbeLoop(ctx, b)
	}
	g.mu.Unlock()
	g.CheckNow(ctx)
	<-ctx.Done()
	g.wg.Wait()
}

// startProbeLoop starts one backend's periodic prober under parent,
// recording its cancel on the backend so a Reload that drops the
// backend can stop it. Callers hold g.mu.
func (g *Gateway) startProbeLoop(parent context.Context, b *backend) {
	ctx, cancel := context.WithCancel(parent)
	b.stop = cancel
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer cancel()
		t := time.NewTicker(g.cfg.CheckInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.probe(ctx, b)
			}
		}
	}()
}

// CheckNow probes every backend once, synchronously — tests and boot
// paths use it to settle health state without waiting out a tick.
func (g *Gateway) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.snapshot() {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// healthySet returns a fresh slice of the healthy backends. With every
// backend excluded it falls open to the full set: routing somewhere
// that might answer beats synthesizing a guaranteed failure at the
// gateway.
func (g *Gateway) healthySet() []*backend {
	all := g.snapshot()
	healthy := make([]*backend, 0, len(all))
	for _, b := range all {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return append(healthy, all...)
	}
	return healthy
}

// rank orders the candidate backends for one request, best first. Under
// affinity that is rendezvous order — descending splitmix64(key ^
// backend) over the healthy set, so losing a backend re-spills only its
// keys and each lands deterministically on its next-ranked survivor.
// Under round-robin it is a rotation of the healthy set.
func (g *Gateway) rank(key uint64) []*backend {
	ranked := g.healthySet()
	if g.cfg.Policy == PolicyRoundRobin {
		off := int(g.rr.Add(1)-1) % len(ranked)
		return append(ranked[off:], ranked[:off]...)
	}
	slices.SortFunc(ranked, func(a, b *backend) int { return cmp.Compare(b.score(key), a.score(key)) })
	return ranked
}

// owner returns the rendezvous owner of key over ALL backends, healthy
// or not — the reference point for counting re-spills.
func (g *Gateway) owner(key uint64) *backend {
	all := g.snapshot()
	best := all[0]
	bestScore := best.score(key)
	for _, b := range all[1:] {
		if s := b.score(key); s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// Handler returns the gateway's routed handler tree: its own health,
// readiness, and metrics pages plus the proxied /v1 API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("POST /v1/sweep", g.handleSweep)
	mux.HandleFunc("POST /v1/", g.handleAPI)
	return mux
}

// backendHeader is set on every proxied response, naming the backend
// that answered — it makes affinity externally observable, which the
// smoke drill leans on.
const backendHeader = "X-Coheregw-Backend"

// traceHeader carries the request ID end to end: the gateway adopts a
// valid inbound one (or mints its own), forwards it to the backend, and
// echoes the backend's copy to the client — the same accept-or-generate
// contract cohered applies, so one ID correlates gateway access logs
// with backend cache events.
const traceHeader = "X-Request-ID"

// handleAPI proxies one single-point API request: read the body,
// derive its routing key, forward along the ranked candidates.
func (g *Gateway) handleAPI(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, fmt.Sprintf("gw: reading body: %v", err))
		return
	}
	g.forward(w, r, body, g.routeKey(r.URL.Path, body))
}

// forward tries the ranked candidates until one yields an HTTP
// response, streaming that response (status, content headers, body,
// Retry-After) back with the answering backend named in the response
// header. A backend transport failure excludes the backend on the spot —
// the next request re-spills without waiting for the prober — and moves
// on to the next candidate; the solves behind every /v1 endpoint are
// pure, so replaying one is safe. The caller's own
// cancellation (client gone, gateway budget) is never blamed on the
// backend. Only when every candidate fails does the client see a
// gateway-minted 502.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, body []byte, key uint64) {
	start := time.Now()
	trace := r.Header.Get(traceHeader)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	resp, b, release, err := g.attempt(ctx, g.rank(key), key, r.Method, r.URL.RequestURI(), body, trace)
	if err != nil {
		code := http.StatusBadGateway
		msg := "gw: no backend answered: " + err.Error()
		switch {
		case callerCancelled(ctx, err) && r.Context().Err() == nil:
			// The gateway's own budget fired while a healthy backend was
			// still working: that is a timeout, not a bad fleet.
			code, msg = http.StatusGatewayTimeout, "gw: request timed out: "+err.Error()
		case callerCancelled(ctx, err):
			// The client hung up: nobody is listening and nothing failed.
		default:
			g.badGateway.Add(1)
		}
		w.Header().Set(traceHeader, trace)
		g.writeErr(w, code, msg)
		g.logRequest(r, code, "", trace, start)
		return
	}
	defer release()
	g.copyResponse(w, resp, b, trace)
	g.logRequest(r, resp.StatusCode, b.url, trace, start)
}

// logRequest emits one gateway access-log line, tagged with the request
// ID so the line joins up with the backend's own access log and cache
// events for the same request.
func (g *Gateway) logRequest(r *http.Request, status int, backend, trace string, start time.Time) {
	g.log.Info("gw request",
		"method", r.Method, "path", r.URL.Path, "status", status,
		"backend", backend, "trace", trace,
		"duration_ms", float64(time.Since(start).Microseconds())/1000)
}

// callerCancelled reports whether err is the requester's own doing —
// the client hung up or the deadline governing ctx fired — rather than
// anything the backend did. Such errors must never exclude a backend:
// a slow-but-healthy backend serving an impatient client is still
// healthy, and excluding it would shed its whole key range for nothing.
func callerCancelled(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// attempt walks the ranked candidates until one yields an HTTP response
// and returns it with the backend that answered and a release func the
// caller must run once the response body is consumed. A backend
// transport failure marks that backend down and moves to the next
// candidate; caller-context cancellation stops the walk without blaming
// anyone. When hedging is enabled, the first candidate races the
// second. The respill counter ticks when affinity routing could not use
// the key's true owner.
func (g *Gateway) attempt(ctx context.Context, ranked []*backend, key uint64, method, uri string, body []byte, trace string) (*http.Response, *backend, func(), error) {
	if g.cfg.Policy == PolicyAffinity && len(ranked) > 0 && ranked[0] != g.owner(key) {
		g.respills.Add(1)
	}
	if g.cfg.HedgeDelay > 0 && len(ranked) >= 2 {
		return g.attemptHedged(ctx, ranked, g.cfg.HedgeDelay, method, uri, body, trace)
	}
	resp, b, err := g.attemptSeq(ctx, ranked, method, uri, body, trace, false)
	return resp, b, nopRelease, err
}

// nopRelease is the release func for un-hedged responses: nothing to
// cancel once the body is consumed.
func nopRelease() {}

// attemptSeq is the sequential candidate walk; countFirst counts even
// the first attempt as a retry (the hedged path uses it for its
// overflow candidates).
func (g *Gateway) attemptSeq(ctx context.Context, ranked []*backend, method, uri string, body []byte, trace string, countFirst bool) (*http.Response, *backend, error) {
	var lastErr error
	for i, b := range ranked {
		if i > 0 || countFirst {
			g.retries.Add(1)
		}
		resp, err := g.send(ctx, b, method, uri, body, trace)
		if err != nil {
			lastErr = err
			if callerCancelled(ctx, err) {
				break
			}
			g.markDown(b, err)
			continue
		}
		b.routes.Add(1)
		b.responses[classIdx(resp.StatusCode)].Add(1)
		return resp, b, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no candidate backends")
	}
	return nil, nil, lastErr
}

// attemptHedged races the top-ranked candidate against the next one:
// the primary is sent immediately, and if it has not answered within
// delay the hedge fires. First response wins and is relayed; the loser
// is cancelled (its cancellation never marks it down — the gateway did
// it, not the network). A candidate that fails with a real transport
// error is marked down as usual, and if both hedge lanes fail the walk
// falls back to the remaining candidates sequentially.
func (g *Gateway) attemptHedged(ctx context.Context, ranked []*backend, delay time.Duration, method, uri string, body []byte, trace string) (*http.Response, *backend, func(), error) {
	type lane struct {
		b      *backend
		cancel context.CancelFunc
		ch     chan laneResult
	}
	launch := func(b *backend) *lane {
		lctx, cancel := context.WithCancel(ctx)
		l := &lane{b: b, cancel: cancel, ch: make(chan laneResult, 1)}
		go func() {
			resp, err := g.send(lctx, b, method, uri, body, trace)
			l.ch <- laneResult{resp: resp, err: err, ctx: lctx}
		}()
		return l
	}
	primary := launch(ranked[0])
	var hedge *lane
	timer := time.NewTimer(delay)
	defer timer.Stop()

	finish := func(winner, loser *lane, r laneResult) (*http.Response, *backend, func(), error) {
		winner.b.routes.Add(1)
		winner.b.responses[classIdx(r.resp.StatusCode)].Add(1)
		if loser != nil {
			loser.cancel()
			go func(l *lane) {
				// Reap the loser off the request path: close its body if
				// it answered after all, and never blame it for the
				// cancellation we just issued.
				lr := <-l.ch
				if lr.resp != nil {
					lr.resp.Body.Close()
				} else if lr.err != nil && !callerCancelled(lr.ctx, lr.err) {
					g.markDown(l.b, lr.err)
				}
			}(loser)
		}
		return r.resp, winner.b, winner.cancel, nil
	}

	var failed []error
	for {
		var hedgeCh chan laneResult
		if hedge != nil {
			hedgeCh = hedge.ch
		}
		var primaryCh chan laneResult
		if primary != nil {
			primaryCh = primary.ch
		}
		select {
		case <-timer.C:
			if hedge == nil && primary != nil {
				g.hedges.Add(1)
				hedge = launch(ranked[1])
			}
		case r := <-primaryCh:
			if r.err == nil {
				return finish(primary, hedge, r)
			}
			primary.cancel()
			if callerCancelled(ctx, r.err) {
				if hedge != nil {
					hedge.cancel()
				}
				return nil, nil, nopRelease, r.err
			}
			g.markDown(primary.b, r.err)
			failed = append(failed, r.err)
			primary = nil
			if hedge == nil {
				// The primary died before the hedge delay: move straight to
				// the next candidate as an ordinary retry, not a hedge.
				g.retries.Add(1)
				hedge = launch(ranked[1])
			}
		case r := <-hedgeCh:
			if r.err == nil {
				if primary != nil {
					g.hedgeWins.Add(1)
				}
				return finish(hedge, primary, r)
			}
			hedge.cancel()
			if callerCancelled(ctx, r.err) {
				if primary != nil {
					primary.cancel()
				}
				return nil, nil, nopRelease, r.err
			}
			g.markDown(hedge.b, r.err)
			failed = append(failed, r.err)
			hedge = nil
		}
		if primary == nil && hedge == nil {
			// Both lanes failed for real: continue down the ranking.
			resp, b, err := g.attemptSeq(ctx, ranked[2:], method, uri, body, trace, true)
			if err != nil && len(failed) > 0 {
				err = fmt.Errorf("%v (after %d hedge-lane failures, last: %v)", err, len(failed), failed[len(failed)-1])
			}
			return resp, b, nopRelease, err
		}
	}
}

// laneResult carries one hedge lane's outcome.
type laneResult struct {
	resp *http.Response
	err  error
	ctx  context.Context
}

// send issues one proxied attempt against one backend, forwarding the
// request ID.
func (g *Gateway) send(ctx context.Context, b *backend, method, uri string, body []byte, trace string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.url+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	b.sends.Add(1)
	return g.client.Do(req)
}

// copyResponse relays one backend response to the client, echoing the
// request ID, in a single copy.
func (g *Gateway) copyResponse(w http.ResponseWriter, resp *http.Response, b *backend, trace string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if echo := resp.Header.Get(traceHeader); obs.ValidTraceID(echo) {
		trace = echo
	}
	w.Header().Set(traceHeader, trace)
	w.Header().Set(backendHeader, b.url)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		g.log.Debug("copying backend response", "backend", b.url, "err", err)
	}
}

// markDown excludes a backend after a transport-level failure without
// waiting for the prober to notice: requests re-spill immediately, and
// the next successful probe re-admits it. Callers classify first —
// caller-context cancellation never lands here.
func (g *Gateway) markDown(b *backend, err error) {
	b.fails.Store(int32(g.cfg.FailThreshold))
	if b.healthy.CompareAndSwap(true, false) {
		g.log.Warn("backend excluded after transport failure", "backend", b.url, "err", err)
	}
}

// writeErr renders a gateway-minted JSON error.
func (g *Gateway) writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}
