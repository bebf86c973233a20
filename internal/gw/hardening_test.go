package gw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swcc/internal/obs"
)

// Regression and feature tests for the front-tier hardening pass: the
// three failure-semantics bugs (caller-cancellation blamed on backends,
// job streams severed by the blanket request timeout, request IDs
// dropped at the tier boundary) and the rungs built on the fixes
// (hedged requests, weighted rendezvous, live reload).

// readyzOK is the minimal /readyz body a fake backend serves so the
// gateway's probes keep it admitted.
func readyzOK(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ready": true, "cache": {"curve_entries": 0, "hit_ratio": 0}}`)
}

// newFakeBackend boots an httptest backend with a healthy /readyz plus
// the given extra routes.
func newFakeBackend(t *testing.T, routes map[string]http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", readyzOK)
	for pat, h := range routes {
		mux.HandleFunc(pat, h)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestImpatientClientLeavesBackendHealthy is the regression test for
// bug 1: a client that hangs up on a slow-but-healthy backend must not
// get that backend excluded — before the fix, every send error marked
// the backend down and shed its whole key range.
func TestImpatientClientLeavesBackendHealthy(t *testing.T) {
	slow := newFakeBackend(t, map[string]http.HandlerFunc{
		"POST /v1/bus": func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
				return
			}
			fmt.Fprintln(w, `{}`)
		},
	})
	g, ts := newGateway(t, PolicyAffinity, slow.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/bus",
		strings.NewReader(`{"scheme": "dragon", "procs": 8}`))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("impatient client unexpectedly got a response")
	}
	time.Sleep(50 * time.Millisecond) // let the gateway's forward path finish

	b := g.snapshot()[0]
	if !b.healthy.Load() {
		t.Fatal("client disconnect excluded a healthy backend")
	}
	if got := g.badGateway.Load(); got != 0 {
		t.Fatalf("client disconnect counted as a gateway failure: badGateway=%d", got)
	}
}

// TestGatewayTimeoutLeavesBackendHealthy is the second half of bug 1:
// the gateway's own RequestTimeout firing mid-solve is the gateway's
// deadline, not a backend transport failure — the client gets a 504
// (not a 502) and the backend stays in the routing set.
func TestGatewayTimeoutLeavesBackendHealthy(t *testing.T) {
	slow := newFakeBackend(t, map[string]http.HandlerFunc{
		"POST /v1/bus": func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
				return
			}
			fmt.Fprintln(w, `{}`)
		},
	})
	g, err := New(Config{
		Backends:       []string{slow.URL},
		RequestTimeout: 80 * time.Millisecond,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckNow(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	code, body, _ := postGW(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 8}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("gateway budget firing answered %d, want 504: %s", code, body)
	}
	if !g.snapshot()[0].healthy.Load() {
		t.Fatal("gateway's own RequestTimeout excluded a healthy backend")
	}
	if got := g.badGateway.Load(); got != 0 {
		t.Fatalf("gateway timeout counted as a fleet failure: badGateway=%d", got)
	}
}

// TestRequestIDPropagation is the regression test for bug 3: the
// gateway must forward the inbound X-Request-ID to the backend and echo
// the backend's copy to the client, and mint one when the client sent
// none — before the fix the ID was dropped in both directions.
func TestRequestIDPropagation(t *testing.T) {
	var seen atomic.Value // X-Request-ID as received by the backend
	backend := newFakeBackend(t, map[string]http.HandlerFunc{
		"POST /v1/bus": func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			seen.Store(id)
			w.Header().Set("X-Request-ID", id)
			fmt.Fprintln(w, `{}`)
		},
	})
	_, ts := newGateway(t, PolicyAffinity, backend.URL)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/bus", strings.NewReader(`{}`))
	req.Header.Set("X-Request-ID", "client-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, _ := seen.Load().(string); got != "client-trace-42" {
		t.Fatalf("backend saw request ID %q, want the client's", got)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-trace-42" {
		t.Fatalf("client got request ID %q back, want its own", got)
	}

	// No inbound ID: the gateway mints a valid one and still round-trips it.
	resp2, err := http.Post(ts.URL+"/v1/bus", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	minted := resp2.Header.Get("X-Request-ID")
	if !obs.ValidTraceID(minted) {
		t.Fatalf("gateway minted invalid request ID %q", minted)
	}
	if got, _ := seen.Load().(string); got != minted {
		t.Fatalf("backend saw %q but client was told %q", got, minted)
	}
}

// TestHedgedRequestCutsTail pins the hedging contract: a primary that
// outlives the hedge delay is raced against the next-ranked backend,
// the faster response wins, the loser's cancellation does not exclude
// it, and the hedge counters tick.
func TestHedgedRequestCutsTail(t *testing.T) {
	var slowURL atomic.Value // which backend stalls, decided after ranking
	slowURL.Store("")
	handler := func(self *string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			if slowURL.Load().(string) == *self {
				select {
				case <-time.After(2 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			fmt.Fprintln(w, `{"fast": true}`)
		}
	}
	var u1, u2 string
	b1 := newFakeBackend(t, map[string]http.HandlerFunc{"POST /v1/bus": handler(&u1)})
	b2 := newFakeBackend(t, map[string]http.HandlerFunc{"POST /v1/bus": handler(&u2)})
	u1, u2 = b1.URL, b2.URL

	g, err := New(Config{
		Backends:   []string{b1.URL, b2.URL},
		HedgeDelay: 30 * time.Millisecond,
		Logger:     slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckNow(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	body := `{"scheme": "dragon", "procs": 8}`
	ranked := g.rank(g.routeKey("/v1/bus", []byte(body)))
	slowURL.Store(ranked[0].url) // stall the primary; the hedge must win

	start := time.Now()
	code, data, answered := postGW(t, ts, "/v1/bus", body)
	took := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged request answered %d: %s", code, data)
	}
	if answered != ranked[1].url {
		t.Fatalf("answered by %s, want the hedge target %s", answered, ranked[1].url)
	}
	if took > time.Second {
		t.Fatalf("hedge did not cut the tail: took %v", took)
	}
	if g.hedges.Load() == 0 || g.hedgeWins.Load() == 0 {
		t.Fatalf("hedge counters did not tick: hedges=%d wins=%d", g.hedges.Load(), g.hedgeWins.Load())
	}
	time.Sleep(50 * time.Millisecond) // let the loser reaper run
	for _, b := range g.snapshot() {
		if !b.healthy.Load() {
			t.Fatalf("hedge-loser cancellation excluded %s", b.url)
		}
	}
}

// TestWeightedRendezvous pins the weighted-HRW contract: equal weights
// reproduce the unweighted ranking exactly (no key remapping when the
// feature landed), and a weight-4 backend wins a key-space share
// proportional to its weight.
func TestWeightedRendezvous(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	quiet := slog.New(slog.NewJSONHandler(io.Discard, nil))
	plain, err := New(Config{Backends: urls, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := New(Config{Backends: []string{urls[0] + "=1", urls[1] + "=1", urls[2] + "=1"}, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := splitmix64(uint64(i))
		if plain.owner(key).url != pinned.owner(key).url {
			t.Fatalf("key %d: explicit weight 1 moved the owner (%s -> %s)",
				i, plain.owner(key).url, pinned.owner(key).url)
		}
	}

	heavy, err := New(Config{Backends: []string{urls[0] + "=4", urls[1], urls[2]}, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	wins := map[string]int{}
	const keys = 6000
	for i := 0; i < keys; i++ {
		wins[heavy.owner(splitmix64(uint64(i))).url]++
	}
	share := float64(wins[urls[0]]) / keys
	if share < 0.60 || share > 0.73 { // expect 4/6 ≈ 0.667
		t.Fatalf("weight-4 backend won %.1f%% of keys, want ≈66.7%%: %v", share*100, wins)
	}
	for i, b := range heavy.snapshot() {
		if want := []float64{4, 1, 1}[i]; b.effWeight() != want {
			t.Fatalf("%s: effective weight %v, want %v", b.url, b.effWeight(), want)
		}
	}
}

// TestParseBackendWeights pins spec parsing: bad weights are rejected,
// good ones recorded.
func TestParseBackendWeights(t *testing.T) {
	for _, bad := range []string{
		"http://a=0", "http://a=-2", "http://a=x", "http://a=",
		// Trailing garbage after a valid number rejects the whole spec.
		"http://big:8080=4x", "http://a=2.5kg", "http://a=1e3junk",
	} {
		if _, err := parseBackends([]string{bad}); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
	set, err := parseBackends([]string{"http://a=2.5", "b:8080"})
	if err != nil {
		t.Fatal(err)
	}
	if got := set[0].pinnedWeight(); got != 2.5 {
		t.Fatalf("pinned weight %g, want 2.5", got)
	}
	if set[1].url != "http://b:8080" || set[1].pinnedWeight() != 0 {
		t.Fatalf("unweighted spec parsed as %q weight %g", set[1].url, set[1].pinnedWeight())
	}
}

// TestReloadBackendSet drives a live reload end to end: membership
// changes apply without a restart, surviving backends keep their state,
// and removed backends leave the routing set.
func TestReloadBackendSet(t *testing.T) {
	_, b1 := newBackend(t)
	_, b2 := newBackend(t)
	_, b3 := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	postGW(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 8}`)
	routesBefore := g.snapshot()[0].routes.Load()

	res, err := g.Reload([]string{b1.URL, b2.URL, b3.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 1 || len(res.Removed) != 0 {
		t.Fatalf("reload result %+v, want one addition", res)
	}
	if n := len(g.snapshot()); n != 3 {
		t.Fatalf("backend set size %d after reload, want 3", n)
	}
	if g.snapshot()[0].routes.Load() != routesBefore {
		t.Fatal("surviving backend lost its counters across reload")
	}
	if code, data, _ := postGW(t, ts, "/v1/bus", `{"scheme": "dragon", "procs": 8}`); code != http.StatusOK {
		t.Fatalf("request after reload answered %d: %s", code, data)
	}
	if g.reloads.Load() != 1 {
		t.Fatalf("reloads counter %d, want 1", g.reloads.Load())
	}

	// Shrink back: the removed backend leaves the routing set.
	if _, err := g.Reload([]string{b1.URL, b2.URL}); err != nil {
		t.Fatal(err)
	}
	for _, b := range g.snapshot() {
		if b.url == b3.URL {
			t.Fatal("removed backend still in the routing set")
		}
	}

	// A bad spec must leave the current set untouched.
	if _, err := g.Reload([]string{b1.URL, b1.URL}); err == nil {
		t.Fatal("duplicate backend spec accepted")
	}
	if n := len(g.snapshot()); n != 2 {
		t.Fatalf("failed reload mutated the set: %d backends", n)
	}
}

// TestReloadDrainsRemovedBackend pins draining: a request in flight on
// a backend when a reload removes it still completes.
func TestReloadDrainsRemovedBackend(t *testing.T) {
	release := make(chan struct{})
	slow := newFakeBackend(t, map[string]http.HandlerFunc{
		"POST /v1/bus": func(w http.ResponseWriter, r *http.Request) {
			<-release
			fmt.Fprintln(w, `{"drained": true}`)
		},
	})
	_, fast := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, slow.URL)

	done := make(chan error, 1)
	var got []byte
	go func() {
		resp, err := http.Post(ts.URL+"/v1/bus", "application/json", strings.NewReader(`{"scheme": "dragon", "procs": 4}`))
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		got, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, got)
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // request is now parked on the slow backend
	if _, err := g.Reload([]string{fast.URL}); err != nil {
		t.Fatal(err)
	}
	close(release) // the removed backend finishes its in-flight work
	if err := <-done; err != nil {
		t.Fatalf("in-flight request dropped by reload: %v", err)
	}
	if !strings.Contains(string(got), "drained") {
		t.Fatalf("in-flight response body %q, want the draining backend's", got)
	}
}

// TestGatewayBitIdentical pins that the gateway relays single-point
// answers untouched: for the four paper schemes, the response bytes
// through the gateway equal the direct-to-backend bytes.
func TestGatewayBitIdentical(t *testing.T) {
	_, b1 := newBackend(t)
	_, ts := newGateway(t, PolicyAffinity, b1.URL)
	for _, scheme := range []string{"base", "dragon", "swflush", "hybrid"} {
		body := fmt.Sprintf(`{"scheme": %q, "procs": 16}`, scheme)
		direct, err := http.Post(b1.URL+"/v1/bus", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(direct.Body)
		direct.Body.Close()
		if _, got, _ := postGW(t, ts, "/v1/bus", body); string(got) != string(want) {
			t.Fatalf("%s: gateway response differs from direct-to-backend:\n%s\nvs\n%s", scheme, got, want)
		}
	}
}

// TestSweepFanOutUnderHealthFlips hammers the sweep fan-out while a
// backend's health flips underneath it (run under -race): every 200
// must be caller-ordered and bit-identical to the direct-to-backend
// answer, and anything else must be a clean JSON error — never
// interleaved or partial results.
func TestSweepFanOutUnderHealthFlips(t *testing.T) {
	_, b1 := newBackend(t)
	s2, b2 := newBackend(t)
	g, ts := newGateway(t, PolicyAffinity, b1.URL, b2.URL)

	var points []string
	for i := 0; i < 16; i++ {
		points = append(points, fmt.Sprintf(`{"scheme": "dragon", "params": {"shd": %g}, "procs": %d, "point": true}`, 0.1+float64(i)*0.05, 4+i))
	}
	body := `{"points": [` + strings.Join(points, ",") + `]}`

	// The reference answer, from one backend with no gateway involved.
	direct, err := http.Post(b1.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	var want struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}
	canon := func(raw json.RawMessage) string {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad result row: %v", err)
		}
		b, _ := json.Marshal(v)
		return string(b)
	}
	wantRows := make([]string, len(want.Results))
	for i, r := range want.Results {
		wantRows[i] = canon(r)
	}

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s2.SetNotReady("flipping")
			} else {
				s2.SetReady()
			}
			g.CheckNow(context.Background())
			g.CheckNow(context.Background()) // second round crosses FailThreshold
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			deadline := time.Now().Add(500 * time.Millisecond)
			for time.Now().Before(deadline) {
				code, data, _ := postGW(t, ts, "/v1/sweep", body)
				if code != http.StatusOK {
					// A clean remapped error is acceptable; torn output is not.
					var e struct {
						Error string `json:"error"`
					}
					if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
						t.Errorf("non-200 sweep answer is not a clean JSON error: %d %s", code, data)
					}
					continue
				}
				var got struct {
					Count   int               `json:"count"`
					Results []json.RawMessage `json:"results"`
				}
				if err := json.Unmarshal(data, &got); err != nil {
					t.Errorf("torn 200 response: %v", err)
					continue
				}
				if got.Count != 16 || len(got.Results) != 16 {
					t.Errorf("partial results: count=%d len=%d", got.Count, len(got.Results))
					continue
				}
				for i, r := range got.Results {
					if canon(r) != wantRows[i] {
						t.Errorf("row %d not bit-identical under health flips", i)
					}
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	flips.Wait()
	s2.SetReady()
}
