package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// getReadyz hits GET /readyz and decodes the body.
func getReadyz(t *testing.T, ts *httptest.Server) (int, readyzResponse) {
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
	var rz readyzResponse
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

// TestReadyzBody pins the readiness body byte for byte: ready and the
// reason, nothing else. Cache warmth is served live on /healthz and
// /metrics, not copied here.
func TestReadyzBody(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code, resp := post(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 8}`); code != http.StatusOK {
		t.Fatalf("warming request: %d %s", code, resp)
	}
	for _, tc := range []struct {
		notReady string
		want     string
	}{
		{"", `{"ready":true}` + "\n"},
		{"draining", `{"ready":false,"reason":"draining"}` + "\n"},
	} {
		if tc.notReady != "" {
			s.SetNotReady(tc.notReady)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(data) != tc.want {
			t.Errorf("/readyz body %q, want %q", data, tc.want)
		}
	}
}
