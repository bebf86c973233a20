package gw

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// updateMetricsGolden refreshes testdata/metrics_fresh.txt. Run
// `go test ./internal/gw -run TestGatewayMetricsPagePinned -update-metrics-golden`
// only when a family, label or help text changes on purpose.
var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_fresh.txt")

// TestGatewayMetricsPagePinned pins a fresh gateway's /metrics page
// byte for byte. The backend URLs are fixed and never dialled, and
// spelled three ways that normalize alike.
func TestGatewayMetricsPagePinned(t *testing.T) {
	g, err := New(Config{
		Backends: []string{"http://127.0.0.1:1", "127.0.0.1:2", "http://127.0.0.1:3/"},
		Logger:   slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	got := rec.Body.Bytes()

	const path = "testdata/metrics_fresh.txt"
	if *updateMetricsGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-metrics-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("page has %d lines, golden has %d", len(gl), len(wl))
	}
}
