// Command cohered is the long-running model-serving daemon: an HTTP JSON
// API over the analytical coherence model, backed by one shared memoizing
// evaluator so repeated queries are served from cache.
//
// Usage:
//
//	cohered [-addr :8080] [-timeout 10s] [-max-inflight N] [-max-queue N]
//	        [-max-body BYTES] [-max-procs N] [-max-stages N]
//	        [-max-batch N] [-cache-cap N] [-pprof-addr ADDR] [-quiet]
//	        [-fault-seed N] [-fault-err-p P] [-fault-latency D] [-fault-latency-p P]
//
// Endpoints (see internal/serve; OPERATIONS.md is the full operator
// reference):
//
//	GET    /healthz              liveness + cache snapshot
//	GET    /readyz               readiness (503 while draining or shedding)
//	GET    /metrics              Prometheus text format
//	POST   /v1/bus               bus-model curve or single point
//	POST   /v1/network           multistage-network point
//	POST   /v1/advisor           scheme rankings for a workload
//	POST   /v1/sensitivity       parameter sensitivity table
//	POST   /v1/sweep             batch of bus-model points or curves in one round trip
//
// The -fault-* flags arm the deterministic chaos injector
// (internal/fault): every model solve and every /v1/sweep grid point
// then suffers seeded injected errors (mapped to retryable 503s) and
// latency. They exist for resilience drills against a disposable
// daemon — never set them on one serving real traffic.
//
// -pprof-addr, when set, opens a second listener serving only
// net/http/pprof (profiles, goroutine dumps, execution traces). It is a
// separate listener on purpose: profiling stays off the API port, so it
// can be bound to loopback while the API faces the network, and it is
// off entirely by default.
//
// The daemon logs JSON lines to stderr and shuts down gracefully on
// SIGINT/SIGTERM: the listeners close immediately, in-flight requests
// get a grace period to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swcc/internal/fault"
	"swcc/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cohered:", err)
		os.Exit(1)
	}
}

// pprofMux returns a mux serving only the net/http/pprof pages. Built
// explicitly instead of importing the package for its DefaultServeMux
// side effect, so the API listener can never accidentally expose
// profiling routes.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run starts the daemon and blocks until ctx is cancelled or the server
// fails. onReady, when non-nil, receives the bound API address and the
// bound pprof address (nil when -pprof-addr is unset) once the listeners
// are open (tests use it with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, stderr io.Writer, onReady func(api, pprofAddr net.Addr)) error {
	fs := flag.NewFlagSet("cohered", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request model-work budget")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent model solves (0 = 4x GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "queued solves before admission control sheds 503s (0 = 2x max-inflight)")
	maxBody := fs.Int64("max-body", 1<<20, "request body cap in bytes")
	maxProcs := fs.Int("max-procs", 4096, "largest servable bus machine")
	maxStages := fs.Int("max-stages", 20, "largest servable network (2^stages processors)")
	maxBatch := fs.Int("max-batch", 1024, "largest /v1/sweep batch in points")
	cacheCap := fs.Int("cache-cap", 0, "cap curve cache entries, CLOCK-evicting past it (0 = unbounded)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
	quiet := fs.Bool("quiet", false, "suppress per-request access logs")
	faultSeed := fs.Int64("fault-seed", 1, "chaos injector schedule seed (only with -fault-err-p / -fault-latency-p)")
	faultErrP := fs.Float64("fault-err-p", 0, "chaos: per-solve probability of an injected error (503)")
	faultLatency := fs.Duration("fault-latency", 50*time.Millisecond, "chaos: delay injected per latency fault")
	faultLatencyP := fs.Float64("fault-latency-p", 0, "chaos: per-solve probability of injected latency")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// Negated so NaN fails them: every comparison with NaN is false, so
	// plain range checks would pass it and leave the injector unarmed
	// or inert.
	for _, p := range []float64{*faultErrP, *faultLatencyP} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("fault probabilities must be in [0,1]")
		}
	}
	if !(*faultErrP+*faultLatencyP <= 1) {
		return fmt.Errorf("fault probabilities sum past 1")
	}
	var inj *fault.Injector
	if *faultErrP > 0 || *faultLatencyP > 0 {
		inj = fault.New(fault.Config{
			Seed:     *faultSeed,
			Latency:  *faultLatency,
			LatencyP: *faultLatencyP,
			ErrorP:   *faultErrP,
		})
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))

	srv := serve.NewServer(serve.Config{
		RequestTimeout: *timeout,
		MaxInFlight:    *maxInFlight,
		MaxBodyBytes:   *maxBody,
		MaxProcs:       *maxProcs,
		MaxStages:      *maxStages,
		MaxBatchPoints: *maxBatch,
		MaxQueueDepth:  *maxQueue,
		CacheCap:       *cacheCap,
		Fault:          inj,
		Logger:         logger,
	})
	if inj != nil {
		logger.Warn("chaos injector armed",
			"seed", *faultSeed, "err_p", *faultErrP,
			"latency", faultLatency.String(), "latency_p", *faultLatencyP)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Read/write budgets comfortably above the model-work timeout so
		// the request deadline, not the socket, decides the error path.
		ReadTimeout:  *timeout + 5*time.Second,
		WriteTimeout: *timeout + 5*time.Second,
	}

	errc := make(chan error, 2)
	var pprofLn net.Listener
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofLn, err = net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		// No write timeout: CPU profiles and execution traces stream for
		// their requested duration (30s default, longer via ?seconds=).
		pprofSrv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
		logger.Warn("pprof listening", "addr", pprofLn.Addr().String())
		go func() { errc <- pprofSrv.Serve(pprofLn) }()
	}

	logger.Warn("cohered listening", "addr", ln.Addr().String())
	if onReady != nil {
		var pa net.Addr
		if pprofLn != nil {
			pa = pprofLn.Addr()
		}
		onReady(ln.Addr(), pa)
	}

	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
	}
	srv.SetNotReady("draining")
	logger.Warn("cohered shutting down", "grace", grace.String())
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if pprofSrv != nil {
		// Profiling is best-effort; close it hard rather than spending
		// grace budget on an in-flight 30-second profile.
		pprofSrv.Close()
	}
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
