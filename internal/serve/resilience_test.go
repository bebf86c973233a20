package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swcc/internal/fault"
	"swcc/internal/sweep"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockFirstSolve arranges for the first solve to park until release is
// closed, occupying its concurrency slot; later solves run normally.
func blockFirstSolve(s *Server) (entered, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once atomic.Bool
	s.beforeSolve = func() {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	return entered, release
}

// TestShedPath fills the one solve slot and the one queue seat, then
// checks the next request is rejected 503 by admission control — before
// any decode — with a Retry-After header and a shed counted.
func TestShedPath(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueueDepth: 1, RequestTimeout: 5 * time.Second})
	entered, release := blockFirstSolve(s)
	defer close(release)

	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
				strings.NewReader(`{"scheme": "base"}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
		if i == 0 {
			<-entered
		}
	}
	waitUntil(t, 2*time.Second, "a request to queue for the solve slot", func() bool {
		return s.met.queueDepth.Load() >= 1
	})

	resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
		strings.NewReader(`{"scheme": "base"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 (body: %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 without Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("shed body %q does not name the queue", body)
	}
	if got := s.met.sheds.Load(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
}

// TestClientDisconnectWhileQueued pins the bugfix for the queued-client
// disconnect: a client that gives up while waiting for a solve slot must
// be accounted a cancellation (499), never a "server busy" 503 — before
// the fix the errBusy path fired for both and inflated the overload
// signal with requests the server never actually failed.
func TestClientDisconnectWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 5 * time.Second})
	entered, release := blockFirstSolve(s)
	defer close(release)

	go func() {
		resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
			strings.NewReader(`{"scheme": "base"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/bus",
		strings.NewReader(`{"scheme": "base"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, 2*time.Second, "the second request to queue", func() bool {
		return s.met.queueDepth.Load() >= 1
	})
	cancel()
	<-reqDone

	waitUntil(t, 2*time.Second, "the cancellation to be counted", func() bool {
		return s.met.cancels.Load() >= 1
	})
	if c, ok := s.met.requests.Load([2]string{"/v1/bus", "503"}); ok {
		t.Errorf("client disconnect recorded %d busy 503s; want none",
			c.(*atomic.Uint64).Load())
	}
	waitUntil(t, 2*time.Second, "the 499 to be recorded", func() bool {
		c, ok := s.met.requests.Load([2]string{"/v1/bus", "499"})
		return ok && c.(*atomic.Uint64).Load() >= 1
	})
}

// TestQueuedDeadlineCountsBusyNotCancel is the other half of the queued
// disconnect fix: a request whose deadline expires in the queue is a
// genuine 503 and must not be counted as a client cancellation.
func TestQueuedDeadlineCountsBusyNotCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	entered, release := blockFirstSolve(s)
	defer close(release)

	go func() {
		resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
			strings.NewReader(`{"scheme": "base"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	code, _ := post(t, ts, "/v1/bus", `{"scheme": "base"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("queued past deadline: status %d, want 503", code)
	}
	if got := s.met.cancels.Load(); got != 0 {
		t.Errorf("deadline in queue counted %d cancels; want 0", got)
	}
}

// TestCancelledBatchStopsSolving is the cancellation acceptance check: a
// /v1/sweep batch abandoned mid-flight must perform strictly fewer
// evaluator solves than the same batch run to completion — before the
// cancellation points existed, the solve goroutine ground through every
// remaining grid cell for a client that had already hung up.
func TestCancelledBatchStopsSolving(t *testing.T) {
	const points = 128
	var sb strings.Builder
	sb.WriteString(`{"points": [`)
	for i := 0; i < points; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// swflush uses shd (see core.CanonicalParams), so every point is
		// a distinct demand solve rather than one shared cache entry.
		fmt.Fprintf(&sb, `{"scheme": "swflush", "params": {"shd": %.6f}, "point": true}`,
			0.001+float64(i)*0.003)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	// Control: run to completion (no faults) — every point solves.
	ctl, ctlTS := newTestServer(t, Config{})
	if code, out := post(t, ctlTS, "/v1/sweep", body); code != http.StatusOK {
		t.Fatalf("control sweep: status %d: %s", code, out)
	}
	if got := ctl.ev.Stats().MVASolves; got != points {
		t.Fatalf("completed batch did %d MVA solves, want %d", got, points)
	}

	// Cancelled run: injected per-point latency paces the batch so the
	// client's hang-up lands mid-flight.
	inj := fault.New(fault.Config{Seed: 7, Latency: 10 * time.Millisecond, LatencyP: 1})
	s, ts := newTestServer(t, Config{Fault: inj, RequestTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, 10*time.Second, "the batch to start solving", func() bool {
		return s.ev.Stats().MVASolves >= 5
	})
	cancel()
	<-reqDone
	waitUntil(t, 10*time.Second, "the abandoned solve goroutine to drain", func() bool {
		return s.met.solveInFlight.Load() == 0
	})
	if got := s.ev.Stats().MVASolves; got == 0 || got >= points {
		t.Errorf("cancelled batch did %d MVA solves, want 0 < n < %d", got, points)
	}
}

// TestSweepErrorMapping pins the batch error-mapping bugfix directly: a
// context error — the whole request timing out or disconnecting — must
// surface bare, never wearing a misleading "points[i]:" prefix, while
// genuine per-point errors keep their index.
func TestSweepErrorMapping(t *testing.T) {
	live := context.Background()
	done, cancel := context.WithCancel(context.Background())
	cancel()

	if err := sweepError(live, []error{nil, nil}); err != nil {
		t.Errorf("clean batch: %v", err)
	}
	err := sweepError(live, []error{nil, context.DeadlineExceeded, errors.New("model")})
	if !errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), "points[") {
		t.Errorf("deadline at a point surfaced as %q, want bare context error", err)
	}
	err = sweepError(done, []error{nil, errors.New("model")})
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "points[") {
		t.Errorf("done ctx surfaced as %q, want bare context.Canceled", err)
	}
	err = sweepError(live, []error{nil, errors.New("model boom")})
	if err == nil || err.Error() != "points[1]: model boom" {
		t.Errorf("point error surfaced as %q, want points[1] prefix", err)
	}
}

// TestSweepTimeoutClean is the end-to-end half of the mapping fix: a
// sweep that times out mid-batch answers a clean 504 whose body never
// leaks a grid index, on every interleaving of the solve goroutine and
// the handler's timeout.
func TestSweepTimeoutClean(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, Latency: 50 * time.Millisecond, LatencyP: 1})
	_, ts := newTestServer(t, Config{Fault: inj, RequestTimeout: 30 * time.Millisecond})
	code, body := post(t, ts, "/v1/sweep",
		`{"points": [{"scheme": "base"}, {"scheme": "dragon"}, {"scheme": "swflush"}]}`)
	if code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (body: %s)", code, body)
	}
	if strings.Contains(string(body), "points[") {
		t.Errorf("timeout leaked a grid index: %s", body)
	}
}

// TestInjectedErrorIs503 pins the chaos contract for injected errors:
// every one maps to a retryable 503 with a Retry-After hint — never a
// 500, which would page an operator for a fault the harness made up.
func TestInjectedErrorIs503(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, ErrorP: 1})
	_, ts := newTestServer(t, Config{Fault: inj})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
			strings.NewReader(`{"scheme": "base"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("injected error: status %d, want 503 (body: %s)", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("injected-error 503 without Retry-After")
		}
		if !strings.Contains(string(body), "injected") {
			t.Errorf("body %q does not name the injected fault", body)
		}
	}
}

// TestInjectedPanicRecovered checks a panic injected at the solve
// boundary is contained to a 500 — the process survives and keeps
// serving.
func TestInjectedPanicRecovered(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, PanicP: 1})
	_, ts := newTestServer(t, Config{Fault: inj})
	code, _ := post(t, ts, "/v1/bus", `{"scheme": "base"}`)
	if code != http.StatusInternalServerError {
		t.Errorf("injected panic: status %d, want 500", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server dead after injected panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestSweepPointPanicRecovered drives an injected panic into a /v1/sweep
// grid point specifically: those run on sweep's pool goroutines, which
// have no recover of their own, so an uncontained panic there would kill
// the process, not fail a request. Seed 1 with PanicP=0.5 is verified
// below to pass the solve-level draw and panic on a per-point one.
func TestSweepPointPanicRecovered(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, PanicP: 0.5})
	_, ts := newTestServer(t, Config{Fault: inj})
	var sb strings.Builder
	sb.WriteString(`{"points": [`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"scheme": "base", "point": true}`)
	}
	sb.WriteString(`]}`)
	code, body := post(t, ts, "/v1/sweep", sb.String())
	if code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500 (body: %s)", code, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("body %q does not report the contained panic", body)
	}
	_, errs, panics := inj.Counts()
	if panics == 0 {
		t.Fatalf("schedule fired no panic (errs=%d); the seed no longer exercises this path", errs)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server dead after per-point panic: %v", err)
	}
	resp.Body.Close()
}

// TestRetryAfterDerivation pins the Retry-After formula: 1s cold, the
// p90 solve time scaled by queue position over solver slots when warm,
// clamped at 60s when the backlog is hopeless.
func TestRetryAfterDerivation(t *testing.T) {
	s := NewServer(Config{MaxInFlight: 2})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("cold server Retry-After = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		s.met.observeStage(sweep.StageSolve, 5.0) // lands in the le=5 bucket
	}
	s.met.queueDepth.Store(3)
	// p90 = 5s, (3+1) queue positions over 2 slots -> 10s.
	if got := s.retryAfterSeconds(); got != 10 {
		t.Errorf("warm Retry-After = %d, want 10", got)
	}
	s.met.queueDepth.Store(1000)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("backed-up Retry-After = %d, want the 60s clamp", got)
	}
}
