package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swcc/internal/core"
	"swcc/internal/fault"
	"swcc/internal/sweep"
)

// TestSweepGolden pins the batch contract: each results[i] of a
// /v1/sweep response must be byte-identical to the /v1/bus response for
// the same point posted on its own (against a fresh server, so neither
// side benefits from the other's cache).
func TestSweepGolden(t *testing.T) {
	points := []string{
		`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`,
		`{"scheme": "swflush", "procs": 16, "point": true}`,
		`{"scheme": "hybrid", "lockfrac": 0.5, "level": "high", "procs": 4}`,
		`{"scheme": "base"}`,
		`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`, // duplicate of [0]
	}
	_, batchSrv := newTestServer(t, Config{})
	code, body := post(t, batchSrv, "/v1/sweep",
		`{"points": [`+strings.Join(points, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(points) || len(resp.Results) != len(points) {
		t.Fatalf("count=%d results=%d, want %d", resp.Count, len(resp.Results), len(points))
	}
	_, refSrv := newTestServer(t, Config{})
	for i, p := range points {
		refCode, refBody := post(t, refSrv, "/v1/bus", p)
		if refCode != http.StatusOK {
			t.Fatalf("reference point %d: status %d: %s", i, refCode, refBody)
		}
		want := strings.TrimSuffix(string(refBody), "\n")
		if string(resp.Results[i]) != want {
			t.Errorf("results[%d] not bit-identical to /v1/bus:\n got: %s\nwant: %s",
				i, resp.Results[i], want)
		}
	}
}

// TestSweepGroupedCurvesGolden targets the batch-aware solve path: many
// points sharing one (scheme, workload) at different machine sizes, fed
// population-descending, mixing full curves and single points. Each
// result must stay byte-identical to its standalone /v1/bus response —
// the grouped incremental solver may not perturb a single output byte.
func TestSweepGroupedCurvesGolden(t *testing.T) {
	points := []string{
		`{"scheme": "dragon", "procs": 64}`,
		`{"scheme": "dragon", "procs": 8}`,
		`{"scheme": "dragon", "procs": 32, "point": true}`,
		`{"scheme": "dragon", "procs": 8}`, // duplicate
		`{"scheme": "dragon", "procs": 128}`,
		`{"scheme": "base", "procs": 16}`,
	}
	_, batchSrv := newTestServer(t, Config{})
	code, body := post(t, batchSrv, "/v1/sweep",
		`{"points": [`+strings.Join(points, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(points) {
		t.Fatalf("count = %d, want %d", resp.Count, len(points))
	}
	_, refSrv := newTestServer(t, Config{})
	for i, p := range points {
		refCode, refBody := post(t, refSrv, "/v1/bus", p)
		if refCode != http.StatusOK {
			t.Fatalf("reference point %d: status %d: %s", i, refCode, refBody)
		}
		want := strings.TrimSuffix(string(refBody), "\n")
		if string(resp.Results[i]) != want {
			t.Errorf("results[%d] diverged from /v1/bus:\n got: %s\nwant: %s",
				i, resp.Results[i], want)
		}
	}
}

// TestSweepGridMatchesDirect sends a grid in the shape OPERATIONS.md's
// "Large grids" recipe uses — one full curve per scheme and apl value
// (2 schemes x 3 apl values x procs 1..8) — as one /v1/sweep batch.
// Every curve must come back in request order, with processors
// ascending, and equal to the direct library evaluation bit for bit.
func TestSweepGridMatchesDirect(t *testing.T) {
	schemes := []struct {
		wire   string
		scheme core.Scheme
	}{
		{"swflush", core.SoftwareFlush{}},
		{"dragon", core.Dragon{}},
	}
	apls := []float64{10, 20, 30}
	var pts []string
	for _, s := range schemes {
		for _, apl := range apls {
			pts = append(pts, fmt.Sprintf(`{"scheme": %q, "params": {"apl": %g}, "procs": 8}`, s.wire, apl))
		}
	}
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/sweep", `{"points": [`+strings.Join(pts, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp sweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(pts) || len(resp.Results) != len(pts) {
		t.Fatalf("count=%d results=%d, want %d", resp.Count, len(resp.Results), len(pts))
	}
	total := 0
	for si, s := range schemes {
		for ai, apl := range apls {
			r := resp.Results[si*len(apls)+ai]
			if r.Scheme != s.scheme.Name() {
				t.Fatalf("curve (%s, apl=%g) labelled %q", s.wire, apl, r.Scheme)
			}
			p, err := core.MiddleParams().With("apl", apl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.EvaluateBus(s.scheme, p, core.BusCosts(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Points) != len(want) {
				t.Fatalf("curve (%s, apl=%g) has %d points, want %d", s.wire, apl, len(r.Points), len(want))
			}
			for i, pt := range r.Points {
				if pt.Processors != i+1 {
					t.Fatalf("curve (%s, apl=%g) point %d has n=%d", s.wire, apl, i, pt.Processors)
				}
				if pt != want[i] {
					t.Fatalf("curve (%s, apl=%g) n=%d = %+v, direct %+v", s.wire, apl, i+1, pt, want[i])
				}
				total++
			}
		}
	}
	if total != 48 {
		t.Fatalf("grid returned %d points, want 48", total)
	}
}

// TestSweepValidation sweeps the batch endpoint's rejection boundary:
// malformed batches are 400s, and per-point failures name the offending
// index so the client knows which grid cell to fix.
func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchPoints: 3})
	cases := []struct {
		name, body, wantInError string
	}{
		{"empty body", ``, ""},
		{"missing points", `{}`, "non-empty"},
		{"empty points", `{"points": []}`, "non-empty"},
		{"unknown envelope field", `{"points": [{"scheme": "base"}], "procs": 8}`, ""},
		{"over batch cap", `{"points": [{"scheme": "base"}, {"scheme": "base"},
			{"scheme": "base"}, {"scheme": "base"}]}`, "cap"},
		{"unknown scheme at index", `{"points": [{"scheme": "base"}, {"scheme": "firefly"}]}`,
			"points[1]"},
		{"bad param at index", `{"points": [{"scheme": "base", "params": {"shd": 1.5}}]}`,
			"points[0]"},
		{"bad procs at index", `{"points": [{"scheme": "base"}, {"scheme": "base"},
			{"scheme": "base", "procs": -2}]}`, "points[2]"},
		{"unknown point field", `{"points": [{"scheme": "base", "prox": 8}]}`, ""},
	}
	for _, c := range cases {
		code, body := post(t, ts, "/v1/sweep", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body: %s)", c.name, code, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: non-JSON error body %q", c.name, body)
			continue
		}
		if c.wantInError != "" && !strings.Contains(er.Error, c.wantInError) {
			t.Errorf("%s: error %q does not mention %q", c.name, er.Error, c.wantInError)
		}
	}
}

// TestSweepMetrics checks the concurrency-era metric series: a batch
// with duplicate cells drives the request counter for /v1/sweep, the
// shard gauges account for every cache entry, and a capped server under
// key pressure exports a nonzero eviction counter.
func TestSweepMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheCap: 64})
	var points []string
	for i := 0; i < 40; i++ {
		points = append(points,
			fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": 4, "point": true}`,
				0.02+0.9*float64(i)/40))
	}
	// Duplicate the whole grid so the second half hits (or dedups
	// against) the first half's entries.
	body := `{"points": [` + strings.Join(append(points, points...), ",") + `]}`
	if code, resp := post(t, ts, "/v1/sweep", body); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	// Churn distinct keys through the bounded cache until it must evict.
	for round := 0; round < 4; round++ {
		var churn []string
		for i := 0; i < 40; i++ {
			churn = append(churn,
				fmt.Sprintf(`{"scheme": "swflush", "params": {"oclean": %g}, "procs": 4, "point": true}`,
					0.002+0.99*float64(round*40+i)/160))
		}
		if code, resp := post(t, ts, "/v1/sweep",
			`{"points": [`+strings.Join(churn, ",")+`]}`); code != http.StatusOK {
			t.Fatalf("churn round %d: status %d: %s", round, code, resp)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)

	if !strings.Contains(text, `swcc_http_requests_total{path="/v1/sweep",code="200"} 5`) {
		t.Errorf("missing /v1/sweep request counter:\n%s", text)
	}
	if shards := metricValue(t, text, "swcc_cache_shards"); shards < 2 {
		t.Errorf("swcc_cache_shards = %v, want a sharded cache", shards)
	}
	for _, name := range []string{
		`swcc_singleflight_dedups_total{cache="mva"}`,
		`swcc_cache_evictions_total{cache="mva"}`,
		`swcc_cache_shard_entries{cache="mva",shard="0"}`,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics missing series %s", name)
		}
	}
	if ev := labeledMetric(t, text, `swcc_cache_evictions_total{cache="mva"}`); ev == 0 {
		t.Errorf("capped cache under key pressure exported zero curve evictions")
	}
	// The per-shard gauges must sum to the aggregate entry gauge.
	for _, cache := range []string{"mva"} {
		total := labeledMetric(t, text, fmt.Sprintf(`swcc_cache_entries{cache=%q}`, cache))
		var sum float64
		for i := 0; ; i++ {
			line := fmt.Sprintf(`swcc_cache_shard_entries{cache=%q,shard="%d"}`, cache, i)
			if !strings.Contains(text, line+" ") {
				break
			}
			sum += labeledMetric(t, text, line)
		}
		if sum != total {
			t.Errorf("%s shard gauges sum to %v, aggregate says %v", cache, sum, total)
		}
	}
}

// labeledMetric extracts one labeled metric value from Prometheus text.
func labeledMetric(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in:\n%s", series, text)
	return 0
}

// benchBatchBody builds one /v1/sweep body plus the equivalent list of
// /v1/bus bodies over a (scheme x shd) grid of single-point queries.
func benchBatchBody(n int) (string, []string) {
	schemes := []string{"base", "dragon", "swflush", "nocache"}
	var points []string
	for i := 0; i < n; i++ {
		points = append(points,
			fmt.Sprintf(`{"scheme": %q, "params": {"shd": %g}, "procs": 32, "point": true}`,
				schemes[i%len(schemes)], 0.02+0.9*float64(i/len(schemes))/float64(n)))
	}
	return `{"points": [` + strings.Join(points, ",") + `]}`, points
}

// BenchmarkServeBatch compares one 64-point /v1/sweep round trip
// against the 64 sequential /v1/bus calls it replaces, on a shared
// warmed server — the client-visible payoff of the batch endpoint.
func BenchmarkServeBatch(b *testing.B) {
	const gridPoints = 64
	batch, points := benchBatchBody(gridPoints)
	run := func(b *testing.B, ts *httptest.Server, bodies []string, path string) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("%s: status %d", path, resp.StatusCode)
				}
			}
		}
		b.ReportMetric(float64(gridPoints), "points")
	}
	quiet := Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))}
	b.Run("batch", func(b *testing.B) {
		ts := httptest.NewServer(NewServer(quiet).Handler())
		defer ts.Close()
		run(b, ts, []string{batch}, "/v1/sweep")
	})
	b.Run("sequential", func(b *testing.B) {
		ts := httptest.NewServer(NewServer(quiet).Handler())
		defer ts.Close()
		run(b, ts, points, "/v1/bus")
	})
}

// waitPoolBalance retries until the shared point pool's acquires equal
// its releases (abandoned solves release on a drain goroutine, so
// balance can trail the last response by a moment).
func waitPoolBalance(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		acq, rel := sweep.PointPoolAccounting()
		if acq == rel {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("point pool unbalanced: %d acquires, %d releases", acq, rel)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepPoolAccountingUnderFaults hammers /v1/sweep with error and
// panic injection on every point and then proves the pooled point
// buffers all came back: acquires == releases, whatever mix of 200, 500,
// and 503 responses the injector produced.
func TestSweepPoolAccountingUnderFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Fault: fault.New(fault.Config{Seed: 42, ErrorP: 0.05, PanicP: 0.05}),
	})
	var pts []string
	for i := 0; i < 12; i++ {
		pts = append(pts, fmt.Sprintf(`{"scheme":"dragon","procs":%d}`, 4+i))
	}
	body := `{"points":[` + strings.Join(pts, ",") + `]}`
	codes := map[int]int{}
	for i := 0; i < 50; i++ {
		code, _ := post(t, ts, "/v1/sweep", body)
		codes[code]++
	}
	if codes[200] == 0 {
		t.Errorf("no sweep succeeded under injection: %v", codes)
	}
	if codes[500]+codes[503] == 0 {
		t.Errorf("no sweep failed under 25%%+25%% injection: %v", codes)
	}
	waitPoolBalance(t)
}
