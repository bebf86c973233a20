package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

// newTestServer returns a server with quiet logs and the given config.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(s.Close)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

// TestBusGolden pins the /v1/bus contract: for a known workload the
// response must be byte-identical to the equivalent library call
// marshaled through the same wire struct.
func TestBusGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := post(t, ts, "/v1/bus",
		`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	p, err := core.MiddleParams().With("shd", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := core.EvaluateBus(core.Dragon{}, p, core.BusCosts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(busResponse{
		Scheme: "Dragon", Costs: core.BusCosts().Name, Procs: 8, Points: pts,
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("response not bit-identical to library call:\n got: %s\nwant: %s", got, want)
	}
}

// TestBusPointMode checks {"point": true} returns exactly the curve's
// last entry.
func TestBusPointMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := post(t, ts, "/v1/bus", `{"scheme": "swflush", "procs": 16, "point": true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp busResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 1 {
		t.Fatalf("point mode returned %d points", len(resp.Points))
	}
	want, err := core.BusPower(core.SoftwareFlush{}, core.MiddleParams(), core.BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Points[0].Power != want {
		t.Errorf("point power %v != library %v", resp.Points[0].Power, want)
	}
	if resp.Points[0].Processors != 16 {
		t.Errorf("point processors %d != 16", resp.Points[0].Processors)
	}
}

// TestNetworkGolden pins /v1/network against the library for both
// contention models.
func TestNetworkGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, model := range []string{"patel", "mva"} {
		code, got := post(t, ts, "/v1/network",
			fmt.Sprintf(`{"scheme": "swflush", "stages": 6, "model": %q}`, model))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, code, got)
		}
		var pt core.NetworkPoint
		var err error
		if model == "mva" {
			pt, err = core.EvaluateNetworkMVA(context.Background(), core.SoftwareFlush{}, core.MiddleParams(), 6)
		} else {
			pt, err = core.EvaluateNetworkAt(core.SoftwareFlush{}, core.MiddleParams(), 6)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(networkResponse{Scheme: "Software-Flush", Model: model, Point: pt})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response not bit-identical:\n got: %s\nwant: %s", model, got, want)
		}
	}
}

// TestAdvisorGolden pins /v1/advisor against core.RankBusWith through a
// fresh evaluator (the determinism contract makes both bit-identical).
func TestAdvisorGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := post(t, ts, "/v1/advisor", `{"level": "high", "procs": 32}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	ranked, err := core.RankBusWith(sweep.NewEvaluator(), core.DefaultCandidates(),
		core.ParamsAt(core.High), core.BusCosts(), 32)
	if err != nil {
		t.Fatal(err)
	}
	wantResp := advisorResponse{Hardware: "32-processor bus"}
	for _, r := range ranked {
		wantResp.Rankings = append(wantResp.Rankings, rankingJSON{
			Scheme: schemeLabel(r.Scheme), Power: r.Power, Efficiency: r.Efficiency,
		})
	}
	want, err := json.Marshal(wantResp)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("response not bit-identical:\n got: %s\nwant: %s", got, want)
	}
}

// TestSensitivityEndpoint checks the table comes back well-formed and
// matches the library's percent changes.
func TestSensitivityEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, got := post(t, ts, "/v1/sensitivity", `{"procs": 8, "schemes": ["base", "swflush"]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var tab struct {
		Processors int
		Params     []string
		Schemes    []string
		Cells      map[string]map[string]struct{ PercentChange float64 }
	}
	if err := json.Unmarshal(got, &tab); err != nil {
		t.Fatal(err)
	}
	if tab.Processors != 8 || len(tab.Params) != 11 || len(tab.Schemes) != 2 {
		t.Fatalf("malformed table: procs=%d params=%d schemes=%v",
			tab.Processors, len(tab.Params), tab.Schemes)
	}
	cell := tab.Cells["apl"]["Software-Flush"]
	if cell.PercentChange == 0 {
		t.Error("Software-Flush apl sensitivity is zero — table not computed")
	}
}

// TestBadRequests sweeps the validation boundary: every malformed body
// must be a 400 with a JSON error, never a 200 or a 500.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"empty body", "/v1/bus", ``},
		{"not json", "/v1/bus", `procs=16`},
		{"unknown envelope field", "/v1/bus", `{"scheme": "base", "prox": 16}`},
		{"unknown param name", "/v1/bus", `{"scheme": "base", "params": {"shdd": 0.2}}`},
		{"nan param literal", "/v1/bus", `{"scheme": "base", "params": {"shd": NaN}}`},
		{"inf param literal", "/v1/bus", `{"scheme": "base", "params": {"shd": 1e999}}`},
		{"param out of range", "/v1/bus", `{"scheme": "base", "params": {"shd": 1.5}}`},
		{"apl below one", "/v1/bus", `{"scheme": "base", "params": {"apl": 0.5}}`},
		{"unknown scheme", "/v1/bus", `{"scheme": "firefly"}`},
		{"missing scheme", "/v1/bus", `{"procs": 4}`},
		{"level and params", "/v1/bus", `{"scheme": "base", "level": "low", "params": {"shd": 0.2}}`},
		{"bad level", "/v1/bus", `{"scheme": "base", "level": "extreme"}`},
		{"negative procs", "/v1/bus", `{"scheme": "base", "procs": -1}`},
		{"procs over cap", "/v1/bus", `{"scheme": "base", "procs": 1000000}`},
		{"trailing garbage", "/v1/bus", `{"scheme": "base"} {"scheme": "base"}`},
		{"lockfrac on non-hybrid", "/v1/bus", `{"scheme": "dragon", "lockfrac": 0.5}`},
		{"lockfrac out of range", "/v1/bus", `{"scheme": "hybrid", "lockfrac": 1.5}`},
		{"missing stages", "/v1/network", `{"scheme": "base"}`},
		{"stages over cap", "/v1/network", `{"scheme": "base", "stages": 30}`},
		{"bad model", "/v1/network", `{"scheme": "base", "stages": 4, "model": "exact"}`},
		{"advisor procs and stages", "/v1/advisor", `{"procs": 16, "stages": 4}`},
		{"advisor unknown scheme", "/v1/advisor", `{"schemes": ["firefly"]}`},
		{"sensitivity unknown scheme", "/v1/sensitivity", `{"schemes": ["firefly"]}`},
	}
	for _, c := range cases {
		code, body := post(t, ts, c.path, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body: %s)", c.name, code, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: non-JSON error body %q", c.name, body)
		}
	}
}

// TestUnsupportedScheme checks a scheme/hardware mismatch is a 422, not
// a 400 (the request is well-formed) and not a 500 (it is the client's
// choice).
func TestUnsupportedScheme(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/network", `{"scheme": "dragon", "stages": 4}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("dragon on network: status %d, want 422 (body: %s)", code, body)
	}
}

// TestNetworkMVALargeNetworkAnswers checks that the MVA network model
// answers the largest servable network, 20 stages (2^20 processors),
// with a finite point for every scheme the network runs. Its
// unnormalized probabilities pass float64's range from 10 stages; the
// solver rescales them rather than failing. The timeout is generous
// because each solve is about a second of CPU and other packages' tests
// share the host.
func TestNetworkMVALargeNetworkAnswers(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	for _, scheme := range []string{"base", "nocache", "swflush"} {
		code, body := post(t, ts, "/v1/network", fmt.Sprintf(`{"scheme": %q, "stages": 20, "model": "mva"}`, scheme))
		var resp networkResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Errorf("%s: mva at 20 stages: status %d, body %s; want 200", scheme, code, body)
			continue
		}
		if pt := resp.Point; pt.Processors != 1<<20 || !(pt.Power > 0) || math.IsInf(pt.Power, 0) {
			t.Errorf("%s: mva at 20 stages: %+v, want a finite point on 2^20 processors", scheme, pt)
		}
	}
}

// TestMethodAndRouteErrors checks the router rejects wrong methods and
// unknown paths.
func TestMethodAndRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/bus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/bus: status %d, want 405", resp.StatusCode)
	}
	code, _ := post(t, ts, "/v1/nonsense", `{}`)
	if code != http.StatusNotFound {
		t.Errorf("POST /v1/nonsense: status %d, want 404", code)
	}
}

// TestBodyTooLarge checks the request-size cap responds 413.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	code, body := post(t, ts, "/v1/bus",
		`{"scheme": "base", "params": {`+strings.Repeat(" ", 100)+`}}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413 (body: %s)", code, body)
	}
}

// TestTimeoutPath holds a solve open past the request budget and checks
// the client gets a 504.
func TestTimeoutPath(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	s.beforeSolve = func() { <-release }
	code, body := post(t, ts, "/v1/bus", `{"scheme": "base"}`)
	if code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (body: %s)", code, body)
	}
}

// TestBusyPath fills the single concurrency slot and checks the queued
// request fails 503 with a Retry-After hint once its budget expires.
func TestBusyPath(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 60 * time.Millisecond})
	var once bool
	s.beforeSolve = func() {
		if !once {
			once = true
			close(entered)
			<-release
		}
	}
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
			strings.NewReader(`{"scheme": "base"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
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
		t.Error("503 without Retry-After")
	}
	close(release)
	<-firstDone
}

// TestHealthz checks liveness and that the cache snapshot is present.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
}

// metricValue extracts one un-labeled metric value from Prometheus text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestMetricsReportCacheHits is the observability acceptance check:
// repeated identical queries must drive the exported hit counters above
// zero, and the request counters and histogram must account for every
// request.
func TestMetricsReportCacheHits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const repeats = 5
	for i := 0; i < repeats; i++ {
		if code, body := post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 16}`); code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)

	if hits := metricValue(t, text, "swcc_mva_cache_hits_total"); hits < repeats-1 {
		t.Errorf("mva hits %v after %d identical queries", hits, repeats)
	}
	if solves := metricValue(t, text, "swcc_mva_solves_total"); solves != 1 {
		t.Errorf("mva solves %v, want 1", solves)
	}
	if got := metricValue(t, text, "swcc_http_in_flight"); got != 1 {
		// The /metrics request itself is in flight while rendering.
		t.Errorf("in-flight %v, want 1 (the /metrics request)", got)
	}
	if n := metricValue(t, text, "swcc_http_request_duration_seconds_count"); n != repeats {
		t.Errorf("histogram count %v, want %d", n, repeats)
	}
	if !strings.Contains(text, `swcc_http_requests_total{path="/v1/bus",code="200"} 5`) {
		t.Errorf("missing per-path request counter:\n%s", text)
	}
	if !strings.Contains(text, `swcc_cache_entries{cache="mva"} 1`) {
		t.Errorf("missing cache size gauge:\n%s", text)
	}
}

// TestAccessLogWritten checks the structured access log carries the
// request fields.
func TestAccessLogWritten(t *testing.T) {
	var buf safeBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Logger: logger})
	if code, body := post(t, ts, "/v1/bus", `{"scheme": "base"}`); code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	line := buf.String()
	for _, want := range []string{`"path":"/v1/bus"`, `"method":"POST"`, `"status":200`, `"duration_ms"`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %s in: %s", want, line)
		}
	}
}

// TestPanicRecovered checks a panic inside a model solve turns into a
// 500 response, not a dead process (the solve runs off the handler
// goroutine, so it needs its own recover).
func TestPanicRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.beforeSolve = func() { panic("boom") }
	code, _ := post(t, ts, "/v1/bus", `{"scheme": "base"}`)
	if code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", code)
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer: the access-log handler
// writes from request goroutines while the test reads.
type safeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
