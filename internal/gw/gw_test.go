package gw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"swcc/internal/obs"
	"swcc/internal/serve"
)

// newBackend boots one in-process cohered-equivalent backend.
func newBackend(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.NewServer(serve.Config{
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(s.Close)
	t.Cleanup(ts.Close)
	return s, ts
}

// newGateway builds a gateway over the given backend URLs with fast
// checks and quiet logs, and runs one synchronous probe round.
func newGateway(t *testing.T, policy string, urls ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(Config{
		Backends: urls,
		Policy:   policy,
		Logger:   slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.CheckNow(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// postGW posts a JSON body through the gateway and returns the status,
// body, and the backend that answered.
func postGW(t *testing.T, ts *httptest.Server, path, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(backendHeader)
}

// TestAffinityStableAndCanonical pins the affinity contract: the same
// request always routes to the same backend, and requests that are
// equivalent under canonicalization (a param the scheme ignores, the
// implicit vs explicit hybrid lock fraction) land together.
func TestAffinityStableAndCanonical(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	body := `{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`
	code, data, first := postGW(t, ts, "/v1/bus", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	if first == "" {
		t.Fatal("no backend header on proxied response")
	}
	for i := 0; i < 10; i++ {
		if _, _, b := postGW(t, ts, "/v1/bus", body); b != first {
			t.Fatalf("request %d routed to %s, first went to %s", i, b, first)
		}
	}

	// swflush ignores wr (flushes don't depend on the write ratio);
	// wr variants must co-locate.
	va := `{"scheme": "swflush", "params": {"shd": 0.3, "wr": 0.2}, "procs": 8}`
	vb := `{"scheme": "swflush", "params": {"shd": 0.3, "wr": 0.9}, "procs": 8}`
	_, _, ba := postGW(t, ts, "/v1/bus", va)
	_, _, bb := postGW(t, ts, "/v1/bus", vb)
	if ba != bb {
		t.Fatalf("canonically-equal requests split: %s vs %s", ba, bb)
	}

	// Hybrid with the default lock fraction spelled out is the same key.
	ha := `{"scheme": "hybrid", "procs": 8}`
	hb := `{"scheme": "hybrid", "lockfrac": 0.3, "procs": 8}`
	_, _, b3 := postGW(t, ts, "/v1/bus", ha)
	_, _, b4 := postGW(t, ts, "/v1/bus", hb)
	if b3 != b4 {
		t.Fatalf("hybrid default lockfrac split: %s vs %s", b3, b4)
	}

	// The same workload at different populations shares a curve — and
	// must share a backend.
	pa := `{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 4}`
	pb := `{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 32}`
	_, _, b5 := postGW(t, ts, "/v1/bus", pa)
	_, _, b6 := postGW(t, ts, "/v1/bus", pb)
	if b5 != b6 {
		t.Fatalf("same curve split across backends: %s vs %s", b5, b6)
	}
}

// TestAffinitySpreadsKeys sanity-checks that rendezvous hashing uses
// the whole fleet: across many distinct keys both backends serve some.
func TestAffinitySpreadsKeys(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	seen := map[string]int{}
	for i := 0; i < 32; i++ {
		body := fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": 8, "point": true}`, 0.1+float64(i)*0.025)
		code, data, b := postGW(t, ts, "/v1/bus", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, data)
		}
		seen[b]++
	}
	if len(seen) != 2 {
		t.Fatalf("32 distinct keys all routed to one backend: %v", seen)
	}
}

// TestRoundRobinRotates pins the control policy: consecutive identical
// requests alternate backends.
func TestRoundRobinRotates(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, ts := newGateway(t, PolicyRoundRobin, b1.URL, b2.URL)

	body := `{"scheme": "dragon", "procs": 8, "point": true}`
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		_, _, b := postGW(t, ts, "/v1/bus", body)
		seen[b]++
	}
	if len(seen) != 2 || seen[b1.URL] != 3 || seen[b2.URL] != 3 {
		t.Fatalf("round-robin did not rotate evenly: %v", seen)
	}
}

// TestRespillOnBackendDeath kills one backend mid-traffic: every
// request must still answer 200 (the first attempt against the corpse
// retries onto the survivor), the dead backend is excluded on the spot,
// and follow-up traffic routes to the survivor without further retries.
func TestRespillOnBackendDeath(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	// Find keys for both owners while both are alive.
	bodies := make(map[string]string) // backend URL -> a body it owns
	for i := 0; i < 32 && len(bodies) < 2; i++ {
		body := fmt.Sprintf(`{"scheme": "dragon", "params": {"wr": %g}, "procs": 8, "point": true}`, 0.1+float64(i)*0.025)
		_, _, b := postGW(t, ts, "/v1/bus", body)
		if _, ok := bodies[b]; !ok {
			bodies[b] = body
		}
	}
	if len(bodies) != 2 {
		t.Fatal("could not find keys owned by both backends")
	}

	b2.Close() // the fleet loses a backend under load
	for url, body := range bodies {
		code, data, got := postGW(t, ts, "/v1/bus", body)
		if code != http.StatusOK {
			t.Fatalf("key owned by %s answered %d after backend death: %s", url, code, data)
		}
		if got != b1.URL {
			t.Fatalf("request routed to %s, want the survivor %s", got, b1.URL)
		}
	}
	if got := g.retries.Load(); got == 0 {
		t.Fatal("no retry recorded for the first attempt against the dead backend")
	}
	for _, b := range g.snapshot() {
		if b.url == b2.URL && b.healthy.Load() {
			t.Fatal("dead backend still marked healthy after transport failure")
		}
	}
	// Re-spill is deterministic and costs no further retries.
	before := g.retries.Load()
	for _, body := range bodies {
		if code, data, _ := postGW(t, ts, "/v1/bus", body); code != http.StatusOK {
			t.Fatalf("steady-state after re-spill: %d %s", code, data)
		}
	}
	if got := g.retries.Load(); got != before {
		t.Fatalf("steady-state re-spill still retrying: %d -> %d", before, got)
	}
	if g.respills.Load() == 0 {
		t.Fatal("respill counter never ticked")
	}
}

// TestProbeExclusionAndReadmission drives the /readyz-based health
// loop: a backend that turns not-ready is excluded after FailThreshold
// probes and re-admitted on the first healthy one.
func TestProbeExclusionAndReadmission(t *testing.T) {
	s1, b1 := newBackend(t)
	_, b2 := newBackend(t)
	g, _ := newGateway(t, PolicyAffinity, b1.URL, b2.URL)
	ctx := context.Background()

	s1.SetNotReady("draining")
	g.CheckNow(ctx) // one failure: still within threshold
	g.CheckNow(ctx) // second failure: excluded
	var bk1 *backend
	for _, b := range g.snapshot() {
		if b.url == b1.URL {
			bk1 = b
		}
	}
	if bk1.healthy.Load() {
		t.Fatal("not-ready backend still in the routing set after FailThreshold probes")
	}
	if len(g.healthySet()) != 1 {
		t.Fatalf("healthy set size %d, want 1", len(g.healthySet()))
	}

	s1.SetReady()
	g.CheckNow(ctx)
	if !bk1.healthy.Load() {
		t.Fatal("recovered backend not re-admitted on first healthy probe")
	}
	// Warmth was captured from the probe body.
	if bk1.warmth.Load() == nil {
		t.Fatal("probe did not record cache warmth")
	}
}

// TestSweepFanOut partitions a mixed batch across two backends and
// checks the reassembled response is exactly what one backend would
// have produced: same count, caller order, every point present.
func TestSweepFanOut(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	var points []string
	for i := 0; i < 16; i++ {
		points = append(points, fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": %d, "point": true}`, 0.1+float64(i)*0.05, 4+i))
	}
	body := `{"points": [` + strings.Join(points, ",") + `]}`

	code, data, _ := postGW(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("fan-out status %d: %s", code, data)
	}
	var got struct {
		Count   int `json:"count"`
		Results []struct {
			Procs  int `json:"procs"`
			Points []struct {
				Processors int `json:"Processors"`
			} `json:"points"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decoding fan-out response: %v", err)
	}
	if got.Count != 16 || len(got.Results) != 16 {
		t.Fatalf("count %d, results %d, want 16", got.Count, len(got.Results))
	}
	for i, r := range got.Results {
		if r.Procs != 4+i {
			t.Fatalf("result %d has procs %d: caller order not preserved", i, r.Procs)
		}
		if len(r.Points) != 1 || r.Points[0].Processors != 4+i {
			t.Fatalf("result %d carries wrong point: %+v", i, r)
		}
	}

	// Compare against a single backend answering the whole batch.
	resp, err := http.Post(b1.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	direct, _ := io.ReadAll(resp.Body)
	var want struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(direct, &want); err != nil {
		t.Fatal(err)
	}
	var gotRaw struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &gotRaw); err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		var a, b any
		if err := json.Unmarshal(want.Results[i], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotRaw.Results[i], &b); err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("result %d differs from single-backend answer:\n%s\nvs\n%s", i, aj, bj)
		}
	}
}

// TestSweepFanOutErrorRemap pins that a validation error in a
// partitioned batch names the caller's point index, not the sub-batch's.
func TestSweepFanOutErrorRemap(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	// Enough valid points to force a split, with the last one invalid.
	var points []string
	for i := 0; i < 9; i++ {
		points = append(points, fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": 8, "point": true}`, 0.1+float64(i)*0.1))
	}
	points = append(points, `{"scheme": "nosuchscheme", "procs": 8}`)
	body := `{"points": [` + strings.Join(points, ",") + `]}`

	code, data, _ := postGW(t, ts, "/v1/sweep", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, data)
	}
	if !strings.Contains(string(data), "points[9]") {
		t.Fatalf("error does not name the caller's index 9: %s", data)
	}
}

// TestSweepFanOutShareOverCap pins that a backend share larger than the
// read cap is a counted 502 naming the cap, not a silently truncated
// body that fails to decode.
func TestSweepFanOutShareOverCap(t *testing.T) {
	defer func(old int64) { maxSweepShare = old }(maxSweepShare)
	maxSweepShare = 4096

	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	var points []string
	for i := 0; i < 40; i++ {
		points = append(points, fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": 16}`, 0.01+float64(i)*0.02))
	}
	body := `{"points": [` + strings.Join(points, ",") + `]}`

	code, data, _ := postGW(t, ts, "/v1/sweep", body)
	if code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %.300s", code, data)
	}
	if !strings.Contains(string(data), "4096-byte cap") {
		t.Errorf("502 does not name the cap: %s", data)
	}
	if g.badGateway.Load() == 0 {
		t.Error("over-cap share not counted in swcc_gw_bad_gateway_total")
	}
}

// lockedBuffer is a bytes.Buffer safe for a logger and a test to share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSweepFanOutLogsRequest pins that a /v1/sweep fanned out over two
// backends writes the same one access-log line a forwarded request
// does, naming both answering backends, on success and on a remapped
// point error.
func TestSweepFanOutLogsRequest(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	var logs lockedBuffer
	g, err := New(Config{
		Backends: []string{b1.URL, b2.URL},
		Logger:   slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckNow(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	var points []string
	for i := 0; i < 16; i++ {
		points = append(points, fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": %d, "point": true}`, 0.1+float64(i)*0.05, 4+i))
	}
	bad := append(points, `{"scheme": "nosuchscheme", "procs": 8}`)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"points": [` + strings.Join(points, ",") + `]}`, http.StatusOK},
		{`{"points": [` + strings.Join(bad, ",") + `]}`, http.StatusBadRequest},
	} {
		before := len(logs.String())
		if code, data, _ := postGW(t, ts, "/v1/sweep", tc.body); code != tc.code {
			t.Fatalf("fan-out status %d, want %d: %s", code, tc.code, data)
		}
		var lines []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(logs.String()[before:]), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if rec["msg"] == "gw request" {
				lines = append(lines, rec)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("status %d: %d gw request lines, want 1: %v", tc.code, len(lines), lines)
		}
		rec := lines[0]
		if rec["method"] != "POST" || rec["path"] != "/v1/sweep" || rec["status"] != float64(tc.code) {
			t.Errorf("status %d: access line %v", tc.code, rec)
		}
		if trace, _ := rec["trace"].(string); !obs.ValidTraceID(trace) {
			t.Errorf("status %d: access line carries no trace: %v", tc.code, rec)
		}
		if _, ok := rec["duration_ms"].(float64); !ok {
			t.Errorf("status %d: access line carries no duration_ms: %v", tc.code, rec)
		}
		backends, _ := rec["backend"].(string)
		if !strings.Contains(backends, b1.URL) || !strings.Contains(backends, b2.URL) {
			t.Errorf("status %d: access line names backends %q, want %s and %s", tc.code, backends, b1.URL, b2.URL)
		}
	}
}

// TestGatewayReadyz pins gateway readiness: ready with a healthy fleet,
// not ready when every backend is gone.
func TestGatewayReadyz(t *testing.T) {
	_, b1 := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, b1.URL)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway not ready with a healthy backend: %d", resp.StatusCode)
	}

	b1.Close()
	g.CheckNow(context.Background())
	g.CheckNow(context.Background())
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway ready with zero live backends: %d", resp.StatusCode)
	}
}

// TestGatewayMetricsPage sanity-checks the metrics surface: every
// family renders from the first scrape, and route counts move.
func TestGatewayMetricsPage(t *testing.T) {
	_, b1 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL)
	postGW(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 4}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, family := range []string{
		"swcc_gw_backend_healthy", "swcc_gw_healthy_backends",
		"swcc_gw_backend_weight", "swcc_gw_backend_sends_total",
		"swcc_gw_routes_total", "swcc_gw_backend_responses_total",
		"swcc_gw_retries_total", "swcc_gw_respills_total",
		"swcc_gw_hedges_total", "swcc_gw_hedge_wins_total",
		"swcc_gw_reloads_total",
		"swcc_gw_key_fallbacks_total", "swcc_gw_bad_gateway_total",
		"swcc_gw_backend_cache_entries", "swcc_gw_backend_hit_ratio",
	} {
		if !strings.Contains(string(page), "# TYPE "+family+" ") {
			t.Errorf("family %s missing from scrape", family)
		}
	}
	if !strings.Contains(string(page), `swcc_gw_routes_total{backend=`) {
		t.Error("no per-backend route counter rendered")
	}
}
