package serve

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRequestsBitIdentical hammers one shared evaluator from
// many goroutines mixing /v1/bus and /v1/advisor queries (some sharing
// cache entries, some not) and asserts every response for a given body
// is byte-identical to its reference — the serving layer's determinism
// acceptance criterion. Run under -race this also exercises the
// evaluator's locking and the cloned-curve invariant.
func TestConcurrentRequestsBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	queries := []struct{ path, body string }{
		{"/v1/bus", `{"scheme": "dragon", "procs": 32}`},
		{"/v1/bus", `{"scheme": "dragon", "procs": 16}`}, // prefix of the 32-curve
		{"/v1/bus", `{"scheme": "swflush", "params": {"apl": 4}, "procs": 32}`},
		{"/v1/bus", `{"scheme": "hybrid", "lockfrac": 0.5, "procs": 8, "point": true}`},
		{"/v1/advisor", `{"procs": 16}`},
		{"/v1/advisor", `{"level": "high", "procs": 32}`},
		{"/v1/network", `{"scheme": "swflush", "stages": 5}`},
		// The batch endpoint fans out internally, so this one query
		// multiplies the per-request parallelism hitting the evaluator
		// (note point 1 shares the dragon/32 curve with the /v1/bus
		// queries above, and point 2 reads a prefix of it).
		{"/v1/sweep", `{"points": [` +
			`{"scheme": "dragon", "procs": 32},` +
			`{"scheme": "dragon", "procs": 24},` +
			`{"scheme": "swflush", "params": {"apl": 4}, "procs": 32},` +
			`{"scheme": "base", "procs": 8, "point": true}]}`},
	}

	// References come from a fresh, idle server sharing no state with
	// the hammered one.
	_, ref := newTestServer(t, Config{})
	want := make([]string, len(queries))
	for i, q := range queries {
		code, body := post(t, ref, q.path, q.body)
		if code != http.StatusOK {
			t.Fatalf("reference %s %s: status %d: %s", q.path, q.body, code, body)
		}
		want[i] = string(body)
	}

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(w+r)%len(queries)]
				resp, err := http.Post(ts.URL+q.path, "application/json", strings.NewReader(q.body))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- q.body + ": status " + resp.Status
					continue
				}
				if string(body) != want[(w+r)%len(queries)] {
					errs <- q.body + ": response diverged under concurrency"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := s.Evaluator().Stats()
	if st.MVAHits == 0 {
		t.Errorf("hammering produced no cache hits: %+v", st)
	}
}
