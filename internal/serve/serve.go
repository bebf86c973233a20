package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"swcc/internal/core"
	"swcc/internal/fault"
	"swcc/internal/obs"
	"swcc/internal/sweep"
)

// Config tunes the server's limits. The zero value is usable: every
// field falls back to the default documented on it.
type Config struct {
	// RequestTimeout bounds one request's total model work, wait for a
	// concurrency slot included. Default 10s.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrent model solves; requests beyond it wait
	// for a slot and fail 503 if none frees up within the request
	// timeout. Default 4*GOMAXPROCS.
	MaxInFlight int
	// MaxBodyBytes caps the request body. Default 1 MiB.
	MaxBodyBytes int64
	// MaxProcs is the largest servable bus machine (the cost of a bus
	// query is linear in procs). Default 4096.
	MaxProcs int
	// MaxStages is the largest servable network (2^stages processors).
	// Default 20.
	MaxStages int
	// MaxBatchPoints caps the number of grid points one /v1/sweep
	// request may carry. Default 1024.
	MaxBatchPoints int
	// MaxQueueDepth caps how many admitted requests may wait for a
	// concurrency slot before the admission controller starts shedding:
	// past it, new API requests are rejected 503 before their body is
	// even read, with a Retry-After derived from the observed
	// solve-latency histogram. Default 2*MaxInFlight.
	MaxQueueDepth int
	// CacheCap, when positive, bounds the evaluator's curve cache (its
	// only cache) to roughly CacheCap entries, evicting cold entries by a
	// per-shard CLOCK policy — a hard memory ceiling for a long-lived
	// daemon fed adversarial parameter mixes. Default 0 (unbounded:
	// cache growth tracks distinct work).
	CacheCap int
	// Fault, when non-nil, injects deterministic faults (latency,
	// errors, panics) into every model solve and every /v1/sweep grid
	// point, per the injector's seeded schedule — the chaos-testing
	// hook. Default nil: no injection, one nil check per solve.
	Fault *fault.Injector
	// Logger receives structured access and lifecycle logs. Default
	// slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 4096
	}
	if c.MaxStages <= 0 {
		c.MaxStages = 20
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 1024
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 2 * c.MaxInFlight
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the shared state behind the handler tree. Construct with
// NewServer; the zero value is not ready.
type Server struct {
	cfg Config
	ev  *sweep.Evaluator
	// costs is the bus cost table every bus query solves under, built
	// once so the evaluator's pointer-keyed table fingerprint memo hits.
	costs *core.CostTable
	met   *metrics
	log   *slog.Logger
	sem   chan struct{}
	start time.Time

	// notReady holds the reason /readyz should answer 503, or nil when
	// the server is ready. It gates readiness only — /healthz and the
	// API endpoints keep serving — so a front tier can route traffic
	// away from a draining backend without killing it.
	notReady atomic.Pointer[string]

	// beforeSolve, when non-nil, runs inside the solve goroutine before
	// the model work. Tests use it to hold a request open so the
	// timeout and busy paths can be exercised deterministically.
	beforeSolve func()
}

// NewServer returns a server with a fresh evaluator cache, bounded when
// cfg.CacheCap is set. The evaluator is wired to the server's metrics
// registry (stage histograms) and logger (debug-level cache events with
// trace IDs) before it sees any traffic.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		ev:    sweep.NewEvaluatorCap(cfg.CacheCap),
		costs: core.BusCosts(),
		met:   newMetrics(),
		log:   cfg.Logger,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
	}
	s.ev.SetObserver(evalObserver{met: s.met, log: s.log})
	return s
}

// Close is the post-shutdown hook: call it after the listener has shut
// down. The server holds nothing to release today; every request's work
// ends with its request.
func (s *Server) Close() {}

// evalObserver adapts the server's metrics registry and logger to the
// evaluator's sweep.Observer interface: stage wall times land in the
// per-stage histograms, and cache events become debug-level log lines
// carrying the request's trace ID (free when debug logging is off).
type evalObserver struct {
	met *metrics
	log *slog.Logger
}

// StageObserved records one evaluator stage duration into the stage
// histogram family.
func (o evalObserver) StageObserved(ctx context.Context, stage string, seconds float64) {
	o.met.observeStage(stage, seconds)
}

// CacheEvent logs one evaluator cache event at debug level with the
// request's trace ID, so `-quiet` daemons pay only an Enabled check.
func (o evalObserver) CacheEvent(ctx context.Context, cache, event string) {
	if o.log.Enabled(ctx, slog.LevelDebug) {
		o.log.Debug("cache event", "cache", cache, "event", event, "trace", obs.TraceID(ctx))
	}
}

// Evaluator exposes the shared cache, e.g. for tests asserting hit
// counts or for embedding the handler tree next to batch work.
func (s *Server) Evaluator() *sweep.Evaluator { return s.ev }

// SetNotReady makes /readyz answer 503 with the given reason until
// SetReady. The daemon calls it when it starts to drain, so a gateway
// health-checking /readyz routes around a backend that is up but should
// take no new traffic.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(&reason) }

// SetReady clears a SetNotReady, making /readyz answer 200 again
// (load shedding permitting).
func (s *Server) SetReady() { s.notReady.Store(nil) }

// Handler returns the routed, instrumented handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/bus", s.apiHandler(s.handleBus))
	mux.HandleFunc("POST /v1/network", s.apiHandler(s.handleNetwork))
	mux.HandleFunc("POST /v1/advisor", s.apiHandler(s.handleAdvisor))
	mux.HandleFunc("POST /v1/sensitivity", s.apiHandler(s.handleSensitivity))
	mux.HandleFunc("POST /v1/sweep", s.apiHandler(s.handleSweep))
	return s.instrument(mux)
}

// errBusy marks a request that never got a concurrency slot; the
// instrument middleware has already accounted for it by the time the
// handler maps it to 503.
var errBusy = fmt.Errorf("serve: all %s slots busy", "model")

// validateStartKey carries the apiHandler's decode/validate span through
// the context so solve can close the stage at the validation/model-work
// boundary.
type validateStartKey struct{}

// solve runs fn under the concurrency limiter with the request context's
// deadline. Waiting for a slot and solving share one budget; a request
// whose *deadline* expires while queued fails errBusy (503 — the server
// genuinely had no capacity in time), while a request whose client
// disconnects while queued fails context.Canceled (the client gave up;
// that is logged and counted as a cancellation, not as "server busy").
// A request that times out mid-solve fails ctx.Err() (504). A timed-out
// solve keeps its slot until the goroutine finishes, so MaxInFlight
// bounds real model work even when clients have given up — but the
// evaluator's cancellation points make that goroutine wind down at the
// next ctx check instead of completing the abandoned work.
//
// Entering solve is also the decode/validate stage boundary: everything
// the handler did between reading the body and calling solve was
// decoding and validation, and that wall time is recorded into the
// "validate" stage histogram here (requests rejected before solve are
// not part of the stage series — they never reach model work).
func (s *Server) solve(ctx context.Context, fn func() (any, error)) (any, error) {
	if sp, ok := ctx.Value(validateStartKey{}).(obs.Span); ok {
		s.met.observeStage(stageValidate, sp.Seconds())
	}
	s.met.queueDepth.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.met.queueDepth.Add(-1)
	case <-ctx.Done():
		s.met.queueDepth.Add(-1)
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			s.met.cancels.Add(1)
			s.log.Debug("client gone while queued for a solve slot")
			return nil, err
		}
		return nil, errBusy
	}
	s.met.solveInFlight.Add(1)
	type res struct {
		v   any
		err error
	}
	ch := make(chan res, 1)
	go func() {
		var r res
		// The slot is given back before the result is sent, so a
		// /metrics scrape ordered after the response never still
		// counts this solve in flight.
		defer func() {
			s.met.solveInFlight.Add(-1)
			<-s.sem
			ch <- r
		}()
		// The solve runs outside the handler goroutine, so the
		// instrument middleware's recover cannot catch a panic here;
		// convert it to a 500 instead of killing the process.
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic in model solve", "panic", p, "stack", string(debug.Stack()))
				r = res{nil, fmt.Errorf("serve: internal error: %v", p)}
			}
		}()
		if s.beforeSolve != nil {
			s.beforeSolve()
		}
		if err := s.cfg.Fault.Point(ctx); err != nil {
			r.err = err
			return
		}
		r.v, r.err = fn()
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			s.met.cancels.Add(1)
			s.log.Debug("client gone mid-solve; work stops at its next cancellation point")
		}
		// The abandoned solve may still complete into ch; nobody will
		// encode that response, so its pooled buffers would leak from the
		// pools' accounting. Drain it and release off the request path.
		go func() {
			if r := <-ch; r.v != nil {
				if br, ok := r.v.(bufferReleaser); ok {
					br.ReleaseBuffers()
				}
			}
		}()
		return nil, ctx.Err()
	}
}
