package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// getReadyz hits GET /readyz and decodes the body.
func getReadyz(t *testing.T, ts *httptest.Server) (int, ReadyzResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rz ReadyzResponse
	if err := json.Unmarshal(data, &rz); err != nil {
		t.Fatalf("decoding /readyz body %q: %v", data, err)
	}
	return resp.StatusCode, rz
}

// TestReadyzLifecycle covers the explicit ready-state machine: a fresh
// server is ready, SetNotReady flips /readyz to 503 with the reason
// (while /healthz stays 200 — not-ready is "drain me", not "kill me"),
// and SetReady restores 200.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	code, rz := getReadyz(t, ts)
	if code != http.StatusOK || !rz.Ready || rz.Reason != "" {
		t.Fatalf("fresh server: code %d, body %+v", code, rz)
	}

	s.SetNotReady("draining")
	code, rz = getReadyz(t, ts)
	if code != http.StatusServiceUnavailable || rz.Ready || rz.Reason != "draining" {
		t.Fatalf("not-ready server: code %d, body %+v", code, rz)
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz %d while not-ready; liveness must not follow readiness", hResp.StatusCode)
	}

	s.SetReady()
	if code, rz = getReadyz(t, ts); code != http.StatusOK || !rz.Ready {
		t.Fatalf("after SetReady: code %d, body %+v", code, rz)
	}
}

// TestReadyzSheddingNotReady pins that a server past its queue-depth
// cap reports not-ready with reason "shedding" — the same condition
// under which apiHandler 503s new work — without any explicit
// SetNotReady call.
func TestReadyzSheddingNotReady(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueueDepth: 1})
	// Simulate a full queue the way admission control sees it.
	s.met.queueDepth.Add(1)
	defer s.met.queueDepth.Add(-1)

	code, rz := getReadyz(t, ts)
	if code != http.StatusServiceUnavailable || rz.Ready || rz.Reason != "shedding" {
		t.Fatalf("shedding server: code %d, body %+v", code, rz)
	}
}

// TestReadyzCacheWarmth pins that the body carries real warmth
// counters: entries and hit ratio move when the cache does.
func TestReadyzCacheWarmth(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, rz := getReadyz(t, ts)
	if rz.Cache.CurveEntries != 0 || rz.Cache.HitRatio != 0 {
		t.Fatalf("cold server reports warmth: %+v", rz.Cache)
	}

	body := `{"scheme": "dragon", "procs": 8}`
	for i := 0; i < 3; i++ {
		if code, resp := post(t, ts, "/v1/bus", body); code != http.StatusOK {
			t.Fatalf("warming request %d: %d %s", i, code, resp)
		}
	}
	_, rz = getReadyz(t, ts)
	if rz.Cache.CurveEntries == 0 {
		t.Fatalf("warm server reports no entries: %+v", rz.Cache)
	}
	if rz.Cache.HitRatio <= 0 || rz.Cache.HitRatio > 1 {
		t.Fatalf("hit ratio %v out of range after repeated identical requests", rz.Cache.HitRatio)
	}
}
