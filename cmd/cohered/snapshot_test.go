package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bootDaemon starts run() with the given extra flags and returns the
// base URL plus a shutdown func that cancels the run context and waits
// for a clean exit.
func bootDaemon(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extra...)
	go func() {
		done <- run(ctx, args, io.Discard, func(a, _ net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// waitReady polls /readyz until it answers 200 and returns that body.
// The daemon opens its listener before restoring a snapshot and answers
// 503 until the restore finishes, so a test must wait on readiness —
// not on scheduling — before asserting on restored state.
func waitReady(t *testing.T, base string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d after 10s: %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cacheStats reads the evaluator counters from /healthz.
func cacheStats(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Cache map[string]float64 `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	return h.Cache
}

// TestWarmStartSnapshot is the end-to-end warm-start contract: a daemon
// restarted with -snapshot-path serves its first request for a
// previously-cached key without a single demand or full MVA solve, the
// cold-solve ramp skipped entirely.
func TestWarmStartSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "memo.snap")
	bodies := []string{
		`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 16}`,
		`{"scheme": "swflush", "params": {"shd": 0.7}, "procs": 16}`,
		`{"scheme": "hybrid", "procs": 12}`,
	}

	// First life: warm the cache, then SIGTERM-exit writing the snapshot.
	base, shutdown := bootDaemon(t, "-snapshot-path", snap)
	for _, b := range bodies {
		resp, err := http.Post(base+"/v1/bus", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatalf("warming: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming: status %d", resp.StatusCode)
		}
	}
	shutdown()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot written on shutdown: %v", err)
	}

	// Second life: the snapshot restores, /readyz reports the warmth,
	// and replaying the working set does zero solves.
	base, shutdown = bootDaemon(t, "-snapshot-path", snap)
	defer shutdown()

	rzBody := waitReady(t, base)
	if !strings.Contains(string(rzBody), `"curve_entries"`) {
		t.Fatalf("readyz after restore: %s", rzBody)
	}
	st := cacheStats(t, base)
	if st["CurveEntries"] == 0 {
		t.Fatalf("restart restored nothing: %+v", st)
	}
	if st["MVASolves"] != 0 {
		t.Fatalf("restart shows phantom solves: %+v", st)
	}

	for _, b := range bodies {
		resp, err := http.Post(base+"/v1/bus", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatalf("warm replay: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm replay: status %d", resp.StatusCode)
		}
	}
	st = cacheStats(t, base)
	if st["MVASolves"] != 0 {
		t.Errorf("warm replay performed %v MVA solves; snapshot did not skip the ramp", st["MVASolves"])
	}
	if st["MVAHits"] == 0 {
		t.Errorf("warm replay recorded no hits: %+v", st)
	}
}

// TestStaleSnapshotRejectedCleanly boots against a corrupt snapshot
// file: the daemon must come up cold and healthy, not crash and not
// serve from a suspect cache.
func TestStaleSnapshotRejectedCleanly(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "memo.snap")
	if err := os.WriteFile(snap, []byte("SWCCSNP1 but then garbage follows"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown := bootDaemon(t, "-snapshot-path", snap)
	defer shutdown()

	waitReady(t, base) // the rejected restore is over
	st := cacheStats(t, base)
	if st["CurveEntries"] != 0 {
		t.Fatalf("corrupt snapshot restored entries: %+v", st)
	}
	resp, err := http.Post(base+"/v1/bus", "application/json",
		strings.NewReader(`{"scheme": "dragon", "procs": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold-after-rejection daemon cannot serve: %d", resp.StatusCode)
	}
}
