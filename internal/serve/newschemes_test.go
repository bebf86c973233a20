package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"swcc/internal/core"
)

// TestNewSchemesReachableEverywhere drives each post-registry scheme —
// Write-Invalidate, Hybrid-Update, and the priority-bus discipline —
// through every public surface the acceptance criteria name: /v1/bus,
// /v1/sweep (single points and a whole curve), and the advisor. Each
// /v1/bus answer must be bit-identical to the direct library call, so
// the serving path adds no seam for extension schemes.
func TestNewSchemesReachableEverywhere(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		wire   string
		scheme core.Scheme
		label  string
	}{
		{"winv", core.WriteInvalidate{}, "Write-Invalidate"},
		{"hybrid-update", core.HybridUpdate{UpdateFrac: 0.5}, "Hybrid-Update(update=0.50)"},
		{"swflush-prio", core.PriorityBus{Inner: core.SoftwareFlush{}}, "Software-Flush+Prio"},
	}

	for _, tc := range cases {
		t.Run(tc.wire+"/bus", func(t *testing.T) {
			code, body := post(t, ts, "/v1/bus",
				fmt.Sprintf(`{"scheme": %q, "params": {"shd": 0.4}, "procs": 8}`, tc.wire))
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			var resp busResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Scheme != tc.label {
				t.Errorf("scheme label = %q, want %q", resp.Scheme, tc.label)
			}
			p, err := core.MiddleParams().With("shd", 0.4)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.EvaluateBus(tc.scheme, p, core.BusCosts(), 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if resp.Points[i] != want[i] {
					t.Fatalf("point %d differs from direct library call:\n got %+v\nwant %+v",
						i+1, resp.Points[i], want[i])
				}
			}
		})

		t.Run(tc.wire+"/sweep", func(t *testing.T) {
			code, body := post(t, ts, "/v1/sweep", fmt.Sprintf(
				`{"points": [{"scheme": %q, "procs": 4, "point": true}, {"scheme": %q, "params": {"shd": 0.7}, "procs": 4, "point": true}]}`,
				tc.wire, tc.wire))
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			var resp sweepResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != 2 {
				t.Fatalf("count = %d, want 2", resp.Count)
			}
			for i, r := range resp.Results {
				if r.Scheme != tc.label {
					t.Errorf("result %d label = %q, want %q", i, r.Scheme, tc.label)
				}
			}
		})

		// A one-axis grid (shd 0.2..0.6 at n=4) sent as one batch: every
		// cell must equal the direct library point bit for bit.
		t.Run(tc.wire+"/grid", func(t *testing.T) {
			shds := []float64{0.2, 0.4, 0.6}
			var pts []string
			for _, shd := range shds {
				pts = append(pts, fmt.Sprintf(
					`{"scheme": %q, "params": {"shd": %g}, "procs": 4, "point": true}`, tc.wire, shd))
			}
			code, body := post(t, ts, "/v1/sweep", `{"points": [`+strings.Join(pts, ",")+`]}`)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			var resp sweepResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != len(shds) {
				t.Fatalf("count = %d, want %d", resp.Count, len(shds))
			}
			for i, shd := range shds {
				p, err := core.MiddleParams().With("shd", shd)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.EvaluateBus(tc.scheme, p, core.BusCosts(), 4)
				if err != nil {
					t.Fatal(err)
				}
				r := resp.Results[i]
				if r.Scheme != tc.label || len(r.Points) != 1 || r.Points[0] != want[3] {
					t.Fatalf("grid cell shd=%g = %+v, want %s %+v", shd, r, tc.label, want[3])
				}
			}
		})
	}

	t.Run("advisor", func(t *testing.T) {
		// Default candidate set: every Advise-marked registration shows up.
		code, body := post(t, ts, "/v1/advisor", `{"level": "mid", "procs": 16}`)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var resp advisorResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		ranked := map[string]bool{}
		for _, r := range resp.Rankings {
			ranked[r.Scheme] = true
		}
		// Knobbed schemes rank under their configured label, e.g.
		// "Hybrid-Update(update=0.50)".
		for _, want := range []string{"Write-Invalidate", "Hybrid-Update(update=0.50)", "Software-Flush+Prio"} {
			if !ranked[want] {
				t.Errorf("default advisor ranking missing %s (got %v)", want, resp.Rankings)
			}
		}
		// Explicit list with a knob override.
		code, body = post(t, ts, "/v1/advisor",
			`{"schemes": ["swflush", "hybrid-update"], "updatefrac": 0.9, "procs": 16}`)
		if code != http.StatusOK {
			t.Fatalf("explicit list status %d: %s", code, body)
		}
	})
}

// TestNewSchemesDistinctResponses: on one fixed workload the three new
// schemes (and their paper siblings) must all answer differently —
// distinct canonical cache identities mean no scheme can alias into
// another's memoized results.
func TestNewSchemesDistinctResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	schemes := []string{"base", "dragon", "swflush", "nocache", "directory", "hybrid",
		"winv", "hybrid-update", "swflush-prio"}
	seenPower := map[float64]string{}
	seenLabel := map[string]string{}
	for _, name := range schemes {
		code, body := post(t, ts, "/v1/bus",
			fmt.Sprintf(`{"scheme": %q, "params": {"shd": 0.5}, "procs": 16, "point": true}`, name))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		var resp busResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if prev, ok := seenLabel[resp.Scheme]; ok {
			t.Errorf("%s and %s share response label %q", prev, name, resp.Scheme)
		}
		seenLabel[resp.Scheme] = name
		pw := resp.Points[0].Power
		if prev, ok := seenPower[pw]; ok {
			t.Errorf("%s and %s predict identical power %g at shd=0.5/16 procs", prev, name, pw)
		}
		seenPower[pw] = name
	}
}

// TestKnobValidation pins the knob plumbing: updatefrac only applies to
// hybrid-update, lockfrac only to hybrid, the two are mutually
// exclusive, and out-of-range values are rejected.
func TestKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		wantCode   int
	}{
		{"updatefrac on hybrid-update", `{"scheme": "hybrid-update", "updatefrac": 0.8, "procs": 4}`, http.StatusOK},
		{"updatefrac changes the answer", `{"scheme": "hybrid-update", "updatefrac": 0.1, "procs": 4}`, http.StatusOK},
		{"updatefrac on swflush", `{"scheme": "swflush", "updatefrac": 0.8, "procs": 4}`, http.StatusBadRequest},
		{"lockfrac on hybrid-update", `{"scheme": "hybrid-update", "lockfrac": 0.5, "procs": 4}`, http.StatusBadRequest},
		{"both knobs", `{"scheme": "hybrid", "lockfrac": 0.5, "updatefrac": 0.5, "procs": 4}`, http.StatusBadRequest},
		{"updatefrac out of range", `{"scheme": "hybrid-update", "updatefrac": 1.5, "procs": 4}`, http.StatusBadRequest},
		{"lockfrac still works", `{"scheme": "hybrid", "lockfrac": 0.6, "procs": 4}`, http.StatusOK},
	} {
		code, body := post(t, ts, "/v1/bus", tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.wantCode, body)
		}
	}

	// The knob must actually steer the model: different updatefrac,
	// different power.
	get := func(body string) float64 {
		t.Helper()
		code, data := post(t, ts, "/v1/bus", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, data)
		}
		var resp busResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Points[len(resp.Points)-1].Power
	}
	hot := get(`{"scheme": "hybrid-update", "updatefrac": 0.9, "params": {"shd": 0.5}, "procs": 16}`)
	cold := get(`{"scheme": "hybrid-update", "updatefrac": 0.1, "params": {"shd": 0.5}, "procs": 16}`)
	if hot == cold {
		t.Errorf("updatefrac has no effect: power %g either way", hot)
	}
}

// TestNearKnobValuesServedExactly: knob values 0.003 apart agree to two
// decimals, so their response labels are equal — but they are different
// questions. Over /v1/bus (after the other value warmed the cache) and
// inside one /v1/sweep batch, each must get its uncached answer.
func TestNearKnobValuesServedExactly(t *testing.T) {
	for _, tc := range []struct {
		scheme, knob string
		va, vb       string
		a, b         core.Scheme
	}{
		{"hybrid", "lockfrac", "0.301", "0.304", core.Hybrid{LockFrac: 0.301}, core.Hybrid{LockFrac: 0.304}},
		{"hybrid-update", "updatefrac", "0.501", "0.504", core.HybridUpdate{UpdateFrac: 0.501}, core.HybridUpdate{UpdateFrac: 0.504}},
	} {
		_, ts := newTestServer(t, Config{})
		want := func(s core.Scheme) core.BusPoint {
			t.Helper()
			pts, err := core.EvaluateBus(s, core.MiddleParams(), core.BusCosts(), 16)
			if err != nil {
				t.Fatal(err)
			}
			return pts[15]
		}
		body := func(v string) string {
			return fmt.Sprintf(`{"scheme": %q, %q: %s, "procs": 16, "point": true}`, tc.scheme, tc.knob, v)
		}
		for _, c := range []struct {
			v string
			s core.Scheme
		}{{tc.va, tc.a}, {tc.vb, tc.b}} {
			code, data := post(t, ts, "/v1/bus", body(c.v))
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, data)
			}
			var resp busResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			if got := resp.Points[0]; got != want(c.s) {
				t.Errorf("/v1/bus %s=%s: %+v, uncached %+v", tc.knob, c.v, got, want(c.s))
			}
		}

		_, fresh := newTestServer(t, Config{})
		code, data := post(t, fresh, "/v1/sweep", `{"points": [`+body(tc.va)+`, `+body(tc.vb)+`]}`)
		if code != http.StatusOK {
			t.Fatalf("sweep status %d: %s", code, data)
		}
		var resp struct {
			Results []busResponse `json:"results"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		for i, s := range []core.Scheme{tc.a, tc.b} {
			if got := resp.Results[i].Points[0]; got != want(s) {
				t.Errorf("/v1/sweep point %d (%s): %+v, uncached %+v", i, core.SchemeKey(s), got, want(s))
			}
		}
	}
}
