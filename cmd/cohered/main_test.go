package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, queries
// /healthz and /v1/bus, then cancels the run context (the signal path)
// and checks it shuts down cleanly.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, io.Discard,
			func(a, _ net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/bus", "application/json",
		strings.NewReader(`{"scheme": "dragon", "procs": 4}`))
	if err != nil {
		t.Fatalf("bus query: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"Dragon"`) {
		t.Fatalf("bus query: status %d body %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestBatchFlags boots the daemon with the batch and cache flags set and
// checks both take effect over the wire: a /v1/sweep batch within the
// -max-batch cap succeeds, one over it is rejected 400, and a -cache-cap
// small enough to evict under the served key mix shows up as a nonzero
// eviction counter on /metrics.
func TestBatchFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-quiet", "-max-batch", "3", "-cache-cap", "32",
		}, io.Discard, func(a, _ net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	post := func(body string) (int, string) {
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("sweep query: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	code, body := post(`{"points": [{"scheme": "dragon", "procs": 4}, {"scheme": "base", "procs": 4}]}`)
	if code != http.StatusOK || !strings.Contains(body, `"count":2`) {
		t.Fatalf("in-cap batch: status %d body %s", code, body)
	}
	code, body = post(`{"points": [{"scheme": "base"}, {"scheme": "base"}, {"scheme": "base"}, {"scheme": "base"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "3-point cap") {
		t.Fatalf("over-cap batch: status %d body %s", code, body)
	}

	// Push more distinct workloads than -cache-cap allows and check the
	// CLOCK policy reports evictions.
	for i := 0; i < 60; i += 3 {
		pts := make([]string, 3)
		for j := range pts {
			pts[j] = fmt.Sprintf(`{"scheme": "swflush", "params": {"shd": %g}, "procs": 4, "point": true}`,
				0.01+0.9*float64(i+j)/60)
		}
		if code, body := post(`{"points": [` + strings.Join(pts, ",") + `]}`); code != http.StatusOK {
			t.Fatalf("churn batch: status %d body %s", code, body)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	if !strings.Contains(text, `swcc_cache_evictions_total{cache="mva"}`) {
		t.Fatalf("metrics missing eviction series:\n%s", text)
	}
	if strings.Contains(text, `swcc_cache_evictions_total{cache="mva"} 0`) {
		t.Errorf("-cache-cap 32 with 60 distinct workloads evicted nothing:\n%s", text)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestPprofListener boots the daemon with -pprof-addr and checks the
// profiling surface is on the second listener only: /debug/pprof/ serves
// there, the API port 404s it, and the pprof port knows nothing of the
// API routes.
func TestPprofListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type addrs struct{ api, pprof net.Addr }
	addrc := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-quiet",
		}, io.Discard, func(a, p net.Addr) { addrc <- addrs{a, p} })
	}()
	var got addrs
	select {
	case got = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	if got.pprof == nil {
		t.Fatal("onReady reported no pprof address despite -pprof-addr")
	}

	get := func(base, path string) (int, string) {
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", base, path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(got.pprof.String(), "/debug/pprof/goroutine?debug=1"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine profile") {
		t.Errorf("pprof goroutine dump: status %d body %.200s", code, body)
	}
	if code, _ := get(got.api.String(), "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("API listener serves pprof routes (status %d); want 404", code)
	}
	if code, _ := get(got.pprof.String(), "/healthz"); code != http.StatusNotFound {
		t.Errorf("pprof listener serves API routes (status %d); want 404", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestBadFlags checks flag errors surface instead of starting a server.
func TestBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-addr"}, io.Discard, nil)
	if err == nil {
		t.Error("missing flag value accepted")
	}
	err = run(context.Background(), []string{"positional"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("positional args accepted: %v", err)
	}
	// A NaN probability fails every comparison, so it must be rejected
	// explicitly. The context is already cancelled: a daemon wrongly
	// started by these flags shuts down at once and run returns nil.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-fault-err-p", "NaN"},
		{"-fault-latency-p", "NaN"},
		{"-fault-err-p", "NaN", "-fault-latency-p", "0.5"},
		{"-fault-err-p", "0.5", "-fault-latency-p", "NaN"},
	} {
		args = append(args, "-addr", "127.0.0.1:0", "-quiet")
		if err := run(done, args, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "fault probabilities") {
			t.Errorf("%v accepted: %v", args, err)
		}
	}
}

// TestOperationsDocCoversAllFlags keeps OPERATIONS.md's flags table
// synchronized with the daemon's actual flag set, both directions:
// every flag -h reports must appear in the table, and every flag the
// table lists must still exist.
func TestOperationsDocCoversAllFlags(t *testing.T) {
	var usage bytes.Buffer
	err := run(context.Background(), []string{"-h"}, &usage, nil)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	real := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		real[m[1]] = true
	}
	if len(real) == 0 {
		t.Fatalf("no flags parsed from usage:\n%s", usage.String())
	}

	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	// The gateway (coheregw) documents its own flags table in its own
	// section, checked by its own twin of this test; scanning it here
	// would report gateway-only flags as stale.
	section := string(doc)
	if i := strings.Index(section, "## Gateway"); i >= 0 {
		if j := strings.Index(section[i+2:], "\n## "); j >= 0 {
			section = section[:i] + section[i+2+j+1:]
		} else {
			section = section[:i]
		}
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}

	for f := range real {
		if !documented[f] {
			t.Errorf("flag -%s exists but is missing from OPERATIONS.md's flags table", f)
		}
	}
	for f := range documented {
		if !real[f] {
			t.Errorf("OPERATIONS.md documents flag -%s, which no longer exists", f)
		}
	}
}

// TestShutdownDrains pins the graceful-drain contract end to end: with
// a solve in flight (held open by injected latency), the SIGTERM path
// must let that request finish 200, refuse new connections, and stop
// both the API and pprof listeners before run returns.
func TestShutdownDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type addrs struct{ api, pprof net.Addr }
	addrc := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-quiet",
			"-fault-latency-p", "1", "-fault-latency", "500ms",
		}, io.Discard, func(a, p net.Addr) { addrc <- addrs{a, p} })
	}()
	var got addrs
	select {
	case got = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + got.api.String()

	type result struct {
		code int
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/bus", "application/json",
			strings.NewReader(`{"scheme": "base"}`))
		r := result{err: err}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.code = resp.StatusCode
		}
		slow <- r
	}()
	// Wait for the injected 500ms solve to actually be in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("metrics during solve: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "swcc_solve_in_flight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel() // the SIGTERM path

	// New work must be refused while the slow request drains: the
	// listener closes at the start of Shutdown, well before the 500ms
	// solve finishes.
	refused := false
	for time.Now().Before(deadline) {
		if _, err := http.Get(base + "/healthz"); err != nil {
			refused = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("API listener kept accepting new requests during shutdown")
	}

	if r := <-slow; r.err != nil || r.code != http.StatusOK {
		t.Errorf("in-flight request not drained: code %d err %v", r.code, r.err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("API listener still serving after run returned")
	}
	if _, err := http.Get("http://" + got.pprof.String() + "/debug/pprof/"); err == nil {
		t.Error("pprof listener still serving after run returned")
	}
}
