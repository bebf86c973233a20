// Command coheregw is the cache-affinity gateway: an HTTP front tier
// that routes requests across N cohered backends by rendezvous-hashing
// each request's canonical cache key, so every backend's memo cache
// stays hot for its own key range (see internal/gw; OPERATIONS.md is
// the operator reference).
//
// Usage:
//
//	coheregw -backends http://h1:8080,http://h2:8080=4 [-addr :8070]
//	         [-policy affinity|roundrobin] [-check-interval 1s]
//	         [-check-timeout 2s] [-fail-threshold 2] [-timeout 15s]
//	         [-max-body BYTES] [-grace 5s] [-quiet]
//	         [-hedge-delay 0]
//	coheregw -backends-file backends.conf ...
//
// Endpoints:
//
//	GET  /healthz   gateway liveness + aggregated backend health
//	GET  /readyz    ready iff at least one backend is healthy
//	GET  /metrics   Prometheus text format (swcc_gw_* families)
//	     /v1/*      proxied to the owning backend
//
// The gateway health-checks each backend's /readyz, excludes backends
// after -fail-threshold consecutive failures, re-admits them on the
// first success, and re-spills an excluded backend's keys to the
// next-ranked survivors. Each backend spec may carry a rendezvous
// weight ("URL=WEIGHT"); with -backends-file, SIGHUP re-reads the file
// and applies the new backend set live — added backends join the
// routing set, removed backends drain their in-flight requests. It
// shuts down gracefully on SIGINT/SIGTERM.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swcc/internal/gw"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "coheregw:", err)
		os.Exit(1)
	}
}

// readBackendsFile parses a backends file: one "URL[=WEIGHT]" spec per
// line, blank lines and #-comments ignored.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		specs = append(specs, line)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("backends file %s lists no backends", path)
	}
	return specs, nil
}

// run starts the gateway and blocks until ctx is cancelled or the
// server fails. onReady, when non-nil, receives the bound address once
// the listener is open (tests use it with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, stderr io.Writer, onReady func(addr net.Addr)) error {
	fs := flag.NewFlagSet("coheregw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8070", "listen address")
	backends := fs.String("backends", "", "comma-separated cohered base URLs, each optionally URL=WEIGHT (this or -backends-file is required)")
	backendsFile := fs.String("backends-file", "", "file listing one backend spec per line; SIGHUP re-reads it and applies the new set live")
	policy := fs.String("policy", gw.PolicyAffinity, "routing policy: affinity or roundrobin")
	checkInterval := fs.Duration("check-interval", time.Second, "per-backend /readyz probe period")
	checkTimeout := fs.Duration("check-timeout", 2*time.Second, "per-probe budget")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive probe failures before a backend is excluded")
	timeout := fs.Duration("timeout", 15*time.Second, "per-request proxy budget, retries included")
	maxBody := fs.Int64("max-body", 1<<20, "request body cap in bytes")
	hedgeDelay := fs.Duration("hedge-delay", 0, "race a duplicate of an idempotent request still in flight after this delay against the next-ranked backend; 0 disables")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
	quiet := fs.Bool("quiet", false, "suppress info-level logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *backends == "" && *backendsFile == "" {
		return errors.New("-backends or -backends-file is required")
	}
	if *backends != "" && *backendsFile != "" {
		return errors.New("-backends and -backends-file are mutually exclusive")
	}
	specs := strings.Split(*backends, ",")
	if *backendsFile != "" {
		var err error
		if specs, err = readBackendsFile(*backendsFile); err != nil {
			return err
		}
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))

	g, err := gw.New(gw.Config{
		Backends:       specs,
		Policy:         *policy,
		CheckInterval:  *checkInterval,
		CheckTimeout:   *checkTimeout,
		FailThreshold:  *failThreshold,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		HedgeDelay:     *hedgeDelay,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *timeout + 5*time.Second,
		WriteTimeout:      *timeout + 5*time.Second,
	}

	hcCtx, hcCancel := context.WithCancel(ctx)
	defer hcCancel()
	go g.Run(hcCtx)

	// SIGHUP re-reads -backends-file and applies the new set without a
	// restart; without the flag there is nothing to re-read, so say so
	// instead of silently eating the signal.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-hcCtx.Done():
				return
			case <-hup:
				if *backendsFile == "" {
					logger.Warn("SIGHUP ignored: no -backends-file to re-read")
					continue
				}
				specs, err := readBackendsFile(*backendsFile)
				if err != nil {
					logger.Error("SIGHUP reload failed, keeping current backends", "err", err)
					continue
				}
				res, err := g.Reload(specs)
				if err != nil {
					logger.Error("SIGHUP reload rejected, keeping current backends", "err", err)
					continue
				}
				logger.Warn("SIGHUP reload applied",
					"added", len(res.Added), "removed", len(res.Removed), "reweighted", len(res.Reweighted))
			}
		}
	}()

	logger.Warn("coheregw listening", "addr", ln.Addr().String(),
		"policy", *policy, "backends", strings.Join(specs, ","))
	if onReady != nil {
		onReady(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
	}
	logger.Warn("coheregw shutting down", "grace", grace.String())
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
