package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// updateMetricsGolden refreshes the pinned /metrics pages. Run
// `go test ./internal/serve -run TestMetricsPagePinned -update-metrics-golden`
// only when a family, label or help text changes on purpose; a change
// to how the page is rendered must pass against the old bytes.
var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_*.txt")

// durationSample matches the sample lines of every *_duration_seconds
// histogram, whose values depend on wall time.
var durationSample = regexp.MustCompile(`(?m)^(swcc_[a-z_]+_duration_seconds_(?:bucket|sum|count)(?:\{[^}]*\})?) .*$`)

// metricsTraffic is the fixed request sequence behind the after-traffic
// golden: a cold and a warm solve, a decode error, each model endpoint,
// a sweep batch, an unrouted path and both probes.
var metricsTraffic = []struct{ method, path, body string }{
	{http.MethodPost, "/v1/bus", `{"scheme": "dragon", "procs": 4}`},
	{http.MethodPost, "/v1/bus", `{"scheme": "dragon", "procs": 4}`},
	{http.MethodPost, "/v1/bus", `{"bad json`},
	{http.MethodPost, "/v1/network", `{"scheme": "base", "stages": 3}`},
	{http.MethodPost, "/v1/advisor", `{"params": {"shd": 0.3}, "procs": 8}`},
	{http.MethodPost, "/v1/sweep", `{"points": [{"scheme": "swflush", "procs": 8}, {"scheme": "base", "procs": 6, "point": true}]}`},
	{http.MethodPost, "/nowhere", `{}`},
	{http.MethodGet, "/healthz", ""},
	{http.MethodGet, "/readyz", ""},
}

// TestMetricsPagePinned pins the daemon's /metrics page byte for byte:
// a fresh server's page, and the page after metricsTraffic with only
// the wall-time histogram values masked.
func TestMetricsPagePinned(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	checkMetricsGolden(t, "testdata/metrics_fresh.txt", scrapeHandler(t, s.Handler()))

	s, _ = newTestServer(t, Config{})
	h := s.Handler()
	for _, r := range metricsTraffic {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
	}
	page := durationSample.ReplaceAll(scrapeHandler(t, h), []byte("$1 <masked>"))
	checkMetricsGolden(t, "testdata/metrics_traffic.txt", page)
}

// scrapeHandler returns the body of one GET /metrics against h.
func scrapeHandler(t *testing.T, h http.Handler) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// checkMetricsGolden compares a page with its golden file, naming the
// first differing line.
func checkMetricsGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: page has %d lines, golden has %d", path, len(gl), len(wl))
}
