package serve

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"swcc/internal/obs"
)

// TestTraceIDEchoedWhenSupplied pins the trace contract's client half: a
// valid X-Request-ID comes back verbatim on the response.
func TestTraceIDEchoedWhenSupplied(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/bus",
		strings.NewReader(`{"scheme": "dragon", "procs": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traceHeader, "client-trace.42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(traceHeader); got != "client-trace.42" {
		t.Errorf("X-Request-ID = %q, want the client's ID echoed back", got)
	}
}

// TestTraceIDGeneratedWhenMissingOrInvalid pins the server half: no ID,
// or one that fails validation, yields a generated well-formed ID.
func TestTraceIDGeneratedWhenMissingOrInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, supplied := range []string{"", "has spaces", strings.Repeat("x", 65)} {
		req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if supplied != "" {
			req.Header.Set(traceHeader, supplied)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(traceHeader)
		if got == supplied {
			t.Errorf("invalid ID %q was echoed instead of replaced", supplied)
		}
		if !obs.ValidTraceID(got) {
			t.Errorf("generated ID %q is not itself valid", got)
		}
	}
}

// TestTraceIDOnAccessLogAndCacheEvents checks the correlation promise:
// with debug logging on, the access log line and the evaluator's cache
// event lines for one request all carry the request's trace ID.
func TestTraceIDOnAccessLogAndCacheEvents(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewJSONHandler(&mu, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})

	req, err := http.NewRequest("POST", ts.URL+"/v1/bus",
		strings.NewReader(`{"scheme": "dragon", "procs": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(traceHeader, "trace-log-correlation")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	mu.mu.Lock()
	logs := buf.String()
	mu.mu.Unlock()
	var access, events int
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, `"trace-log-correlation"`) {
			continue
		}
		switch {
		case strings.Contains(line, `"msg":"request"`):
			access++
		case strings.Contains(line, `"msg":"cache event"`):
			events++
		}
	}
	if access != 1 {
		t.Errorf("want 1 access log line carrying the trace ID, got %d\n%s", access, logs)
	}
	// A cold /v1/bus query misses the curve cache.
	if events < 1 {
		t.Errorf("want >= 1 cache event line carrying the trace ID, got %d\n%s", events, logs)
	}
}

// TestMetricsByteStable pins the exposition-stability guarantee: two
// scrapes of a quiesced server render byte-identical output.
func TestMetricsByteStable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Populate several (path, code) series so the sort actually matters.
	post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 4}`)
	post(t, ts, "/v1/bus", `{"bad json`)
	post(t, ts, "/v1/network", `{"scheme": "base", "stages": 3}`)
	post(t, ts, "/nowhere", `{}`)

	var a, b bytes.Buffer
	s.met.write(&a, s.ev, s.cfg.Fault)
	s.met.write(&b, s.ev, s.cfg.Fault)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical scrapes differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

// TestMetricsExposeStageAndEndpointHistograms checks the new families
// exist, are well formed, and actually accumulated the traffic: the
// per-endpoint count for /v1/bus matches the requests sent, and every
// documented stage recorded at least one observation after a cold and a
// warm solve.
func TestMetricsExposeStageAndEndpointHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 4}`)
	post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 4}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	busCount := regexp.MustCompile(
		`swcc_http_endpoint_duration_seconds_count\{path="/v1/bus"\} (\d+)`).FindStringSubmatch(text)
	if busCount == nil || busCount[1] != "2" {
		t.Errorf("per-endpoint count for /v1/bus = %v, want 2", busCount)
	}
	for _, stage := range []string{"validate", "cache_lookup", "solve"} {
		re := regexp.MustCompile(
			`swcc_stage_duration_seconds_count\{stage="` + stage + `"\} ([1-9]\d*)`)
		if !re.MatchString(text) {
			t.Errorf("stage %q recorded no observations:\n%s", stage, grepMetrics(text, "swcc_stage"))
		}
	}
	// Bucket well-formedness: +Inf bucket equals the count for the
	// aggregate family.
	inf := regexp.MustCompile(
		`swcc_http_request_duration_seconds_bucket\{le="\+Inf"\} (\d+)`).FindStringSubmatch(text)
	cnt := regexp.MustCompile(
		`swcc_http_request_duration_seconds_count (\d+)`).FindStringSubmatch(text)
	if inf == nil || cnt == nil || inf[1] != cnt[1] {
		t.Errorf("+Inf bucket %v != histogram count %v", inf, cnt)
	}
}

// TestSingleflightWaitStageRecorded drives concurrent identical cold
// queries so at least one goroutine joins an in-flight solve, and checks
// the singleflight_wait stage series saw it.
func TestSingleflightWaitStageRecorded(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	s.beforeSolve = func() { <-release }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const callers = 4
	done := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/bus", "application/json",
				strings.NewReader(`{"scheme": "sw", "procs": 8, "point": true}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(release)
	for i := 0; i < callers; i++ {
		<-done
	}

	var buf bytes.Buffer
	s.met.write(&buf, s.ev, s.cfg.Fault)
	text := buf.String()
	m := regexp.MustCompile(
		`swcc_stage_duration_seconds_count\{stage="singleflight_wait"\} (\d+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("singleflight_wait series missing:\n%s", grepMetrics(text, "swcc_stage"))
	}
	st := s.ev.Stats()
	if st.MVADedups > 0 && m[1] == "0" {
		t.Errorf("evaluator reports %d dedups but singleflight_wait count is 0", st.MVADedups)
	}
}

// grepMetrics returns only the lines of a scrape containing substr, for
// readable failure output.
func grepMetrics(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// syncWriter serializes writes from handler goroutines into one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
