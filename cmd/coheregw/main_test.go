package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"swcc/internal/serve"
)

// testBackend boots one in-process backend server.
func testBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.NewServer(serve.Config{
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(s.Close)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayLifecycle boots the gateway over two live backends,
// proxies a /v1/bus query, checks the gateway's own pages, then cancels
// the run context (the signal path) and checks it shuts down cleanly.
func TestGatewayLifecycle(t *testing.T) {
	b1, b2 := testBackend(t), testBackend(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-quiet",
			"-backends", b1.URL + "," + b2.URL,
		}, io.Discard, func(a net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("gateway exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("gateway never became ready")
	}

	resp, err := http.Post(base+"/v1/bus", "application/json",
		strings.NewReader(`{"scheme": "dragon", "procs": 4}`))
	if err != nil {
		t.Fatalf("proxied bus query: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"Dragon"`) {
		t.Fatalf("proxied bus query: status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Coheregw-Backend"); got != b1.URL && got != b2.URL {
		t.Fatalf("backend header %q names neither backend", got)
	}

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not shut down")
	}
}

// TestSighupReloadsBackendsFile drives the live-reload path end to
// end: boot from a -backends-file with one backend, grow the file to
// two, SIGHUP the process, and watch the second backend join the
// routing set without a restart.
func TestSighupReloadsBackendsFile(t *testing.T) {
	b1, b2 := testBackend(t), testBackend(t)
	file := filepath.Join(t.TempDir(), "backends.conf")
	if err := os.WriteFile(file, []byte("# fleet\n"+b1.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-quiet", "-backends-file", file,
		}, io.Discard, func(a net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("gateway exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("gateway never became ready")
	}

	countBackends := func() int {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Backends []struct {
				URL string `json:"url"`
			} `json:"backends"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return len(h.Backends)
	}
	if got := countBackends(); got != 1 {
		t.Fatalf("booted with %d backends, want 1", got)
	}

	if err := os.WriteFile(file, []byte(b1.URL+"\n"+b2.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for countBackends() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP did not grow the backend set to 2")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not shut down")
	}
}

// TestBadFlags checks flag and config errors surface instead of
// starting a server.
func TestBadFlags(t *testing.T) {
	if err := run(context.Background(), nil, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "-backends") {
		t.Error("missing -backends accepted")
	}
	if err := run(context.Background(), []string{"-backends", "x", "-backends-file", "y"}, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Error("-backends together with -backends-file accepted")
	}
	if err := run(context.Background(), []string{"-backends-file", filepath.Join(t.TempDir(), "missing.conf")}, io.Discard, nil); err == nil {
		t.Error("missing backends file accepted")
	}
	if err := run(context.Background(), []string{"-backends", "x", "positional"}, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Error("positional args accepted")
	}
	if err := run(context.Background(), []string{"-backends", "http://h:8080=4"}, io.Discard, nil); err == nil {
		t.Error("weight-suffixed backend spec accepted")
	}
	if err := run(context.Background(), []string{"-backends", "h1", "-policy", "nope"}, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "policy") {
		t.Error("unknown policy accepted")
	}
}

// TestOperationsDocCoversAllFlags keeps OPERATIONS.md's gateway flags
// table synchronized with the real flag set, both directions. Only the
// gateway section of the doc is scanned — the daemon's own flags table
// is checked by cohered's twin of this test.
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
	section := string(doc)
	if i := strings.Index(section, "## Gateway"); i >= 0 {
		section = section[i:]
		if j := strings.Index(section[2:], "\n## "); j >= 0 {
			section = section[:j+2]
		}
	} else {
		t.Fatal("OPERATIONS.md has no Gateway section")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}

	for f := range real {
		if !documented[f] {
			t.Errorf("flag -%s exists but is missing from the gateway flags table", f)
		}
	}
	for f := range documented {
		if !real[f] {
			t.Errorf("gateway flags table documents -%s, which no longer exists", f)
		}
	}
}
