package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// TestLoadRunProducesReport runs a short two-scenario load against the
// in-process daemon and checks the report shape: both scenarios present,
// sane counts and ordered percentiles.
func TestLoadRunProducesReport(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{
		"-c", "4", "-d", "300ms", "-hit-ratios", "1,0",
		"-warm-pool", "8", "-procs", "8",
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(rep.Scenarios))
	}
	for _, s := range rep.Scenarios {
		if s.Requests == 0 {
			t.Errorf("%s: no requests completed", s.Label)
		}
		if s.Errors != 0 {
			t.Errorf("%s: %d errors under a healthy local daemon", s.Label, s.Errors)
		}
		l := s.Latency
		if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.Max) {
			t.Errorf("%s: percentiles out of order: %+v", s.Label, l)
		}
		if l.P50 <= 0 {
			t.Errorf("%s: nonpositive p50 %v", s.Label, l.P50)
		}
	}
}

// TestMissKeysDoNotRepeat pins the hit-ratio mechanism's miss half: the
// counter-derived workloads stay distinct for far more draws than a
// bench window issues.
func TestMissKeysDoNotRepeat(t *testing.T) {
	seen := make(map[float64]bool, 100000)
	for n := uint64(1); n <= 100000; n++ {
		v := missShd(n)
		if v <= 0 || v >= 1 {
			t.Fatalf("missShd(%d) = %v, outside (0,1)", n, v)
		}
		if seen[v] {
			t.Fatalf("missShd repeated a key at n=%d", n)
		}
		seen[v] = true
	}
}

// TestBadFlags checks malformed configuration errors out before any load
// is generated.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-hit-ratios", "1.5"},
		{"-hit-ratios", "nope"},
		{"-mix", "point"},
		{"-mix", "bogus:1"},
		{"-mix", "point:0,curve:0,sweep:0"},
		{"-c", "0"},
		{"-chaos", "-gw"},
		{"-jobs"}, // the async-job drill is gone
		{"-gw", "-addr", "localhost:8080"},
		{"-out", "BENCH.json"}, // the report goes to stdout only
		{"positional"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted; want error", args)
		}
	}
	// Every comparison with NaN is false, so a plain range check lets it
	// through; it must be refused before any load, naming its flag.
	if err := run([]string{"-hit-ratios", "NaN"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-hit-ratios") {
		t.Errorf("-hit-ratios NaN: got %v, want an error naming -hit-ratios", err)
	}
}

// TestMixPick pins the request-kind draw: the cumulative walk over the
// sorted kinds maps every draw to the kind that the sorted slice of
// weight copies of each kind holds at that index, so schedules replay
// unchanged without the slice; and a total weight past int is refused.
func TestMixPick(t *testing.T) {
	m, err := parseMix("point:4,curve:1,sweep:1")
	if err != nil {
		t.Fatal(err)
	}
	var expanded []string
	for i, kind := range m.kinds {
		for j := 0; j < m.weights[i]; j++ {
			expanded = append(expanded, kind)
		}
	}
	sort.Strings(expanded)
	if len(expanded) != m.total {
		t.Fatalf("total %d, want %d", m.total, len(expanded))
	}
	for draw, want := range expanded {
		if got := m.kinds[m.pick(draw)]; got != want {
			t.Errorf("draw %d picks %s, want %s", draw, got, want)
		}
	}
	if _, err := parseMix(fmt.Sprintf("point:%d,curve:1", math.MaxInt)); err == nil {
		t.Error("a total weight past int was accepted")
	}
}

// TestWorkerSeedDerivation pins the per-worker seed fix. The old
// cfg.Seed+worker derivation made adjacent runs replay each other's
// schedules (seed 1's worker 1 was seed 2's worker 0); the hashed
// derivation must keep every (seed, worker) stream distinct, and stay
// bit-stable so a chaos schedule can be replayed from its flags.
func TestWorkerSeedDerivation(t *testing.T) {
	golden := map[int]int64{
		0: 9129838320742759465,
		1: 2139811525164838579,
		2: 4875857236239627170,
		3: -8199743362588960697,
	}
	for w, want := range golden {
		if got := workerSeed(42, w); got != want {
			t.Errorf("workerSeed(42, %d) = %d, want %d — the schedule is no longer replayable", w, got, want)
		}
	}
	if workerSeed(1, 1) == workerSeed(2, 0) {
		t.Error("adjacent-run collision is back: workerSeed(1,1) == workerSeed(2,0)")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		for w := 0; w < 64; w++ {
			s := workerSeed(seed, w)
			if seen[s] {
				t.Fatalf("duplicate worker seed at (seed=%d, worker=%d)", seed, w)
			}
			seen[s] = true
		}
	}
}

// gateArm is a drill summary carrying only the fields the gw gates
// read: one timed window whose p99 is p99.
func gateArm(p99, hitRatio, sendRatio float64) summary {
	s := summary{BackendHitRatio: hitRatio, BackendSendRatio: sendRatio, WindowP99: []float64{p99}}
	s.Latency.P99 = p99
	return s
}

// TestGwGatePasses: affinity past gwHitRatioGate times round-robin's
// hit ratio, with a lower p99, passes.
func TestGwGatePasses(t *testing.T) {
	if err := affinityGate(gateArm(0.8, 0.97, 0), gateArm(1.4, 0.58, 0)); err != nil {
		t.Errorf("healthy arms failed the gate: %v", err)
	}
}

// TestGwGateFailsOnHitRatio: a 1.2x hit-ratio gain fails the 1.5x gate.
func TestGwGateFailsOnHitRatio(t *testing.T) {
	err := affinityGate(gateArm(0.8, 0.70, 0), gateArm(1.4, 0.58, 0))
	if err == nil || errors.Is(err, errTailBand) {
		t.Errorf("1.2x hit-ratio gain: got %v, want a hit-ratio failure", err)
	}
}

// TestGwGateReportsAttribution: a failed gate names the affinity arm's
// respills, retries and evictions, on either branch.
func TestGwGateReportsAttribution(t *testing.T) {
	for _, hit := range []float64{0.70, 0.97} {
		aff := gateArm(1.5, hit, 0)
		aff.GwRespills, aff.GwRetries, aff.CurveEvictions = 17, 3, 412
		err := affinityGate(aff, gateArm(1.4, 0.58, 0))
		if err == nil || !strings.Contains(err.Error(), "17 gateway respills, 3 gateway retries, 412 fleet curve evictions") {
			t.Errorf("hit ratio %.2f: got %v, want the arm's counters in the error", hit, err)
		}
	}
}

// TestGwGateFailsOnP99: affinity p99 past round-robin's times gwP99Band
// fails with errTailBand even with a winning hit ratio.
func TestGwGateFailsOnP99(t *testing.T) {
	err := affinityGate(gateArm(1.5, 0.97, 0), gateArm(1.4, 0.58, 0))
	if !errors.Is(err, errTailBand) {
		t.Errorf("affinity p99 7%% over round-robin: got %v, want errTailBand", err)
	}
}

// TestGwGateP99WindowMedian: the p99 band gates on the median window
// ratio, so one or two slow affinity windows of five pass and three
// fail.
func TestGwGateP99WindowMedian(t *testing.T) {
	arms := func(slow int) (summary, summary) {
		aff, rr := gateArm(0, 0.97, 0), gateArm(0, 0.58, 0)
		aff.WindowP99, rr.WindowP99 = nil, nil
		for w := 0; w < 5; w++ {
			p99 := 0.9
			if w < slow {
				p99 = 1.3
			}
			aff.WindowP99 = append(aff.WindowP99, p99)
			rr.WindowP99 = append(rr.WindowP99, 1.0)
		}
		return aff, rr
	}
	for slow := 0; slow <= 2; slow++ {
		if err := affinityGate(arms(slow)); err != nil {
			t.Errorf("%d slow windows of 5: %v", slow, err)
		}
	}
	if err := affinityGate(arms(3)); !errors.Is(err, errTailBand) {
		t.Errorf("3 slow windows of 5: got %v, want errTailBand", err)
	}
}

// TestHedgeGatePasses: a hedged arm that cuts the injected tail inside
// the load band passes.
func TestHedgeGatePasses(t *testing.T) {
	if err := hedgeGate(gateArm(130, 0, 1.0), gateArm(35, 0, 1.06)); err != nil {
		t.Errorf("healthy hedging arms failed the gate: %v", err)
	}
}

// TestHedgeGateFailsOnP99: a hedged p99 that no longer beats the
// unhedged arm's fails.
func TestHedgeGateFailsOnP99(t *testing.T) {
	if err := hedgeGate(gateArm(130, 0, 1.0), gateArm(131, 0, 1.05)); err == nil {
		t.Error("hedged p99 above unhedged passed the gate")
	}
}

// TestHedgeGateFailsOnLoad: a hedged arm past gwHedgeLoadBand fails
// even with a winning p99.
func TestHedgeGateFailsOnLoad(t *testing.T) {
	if err := hedgeGate(gateArm(130, 0, 1.0), gateArm(35, 0, 1.25)); err == nil {
		t.Error("1.25x backend send ratio passed the 1.10x load band")
	}
}

// TestGwRun is the in-process version of `make gw-smoke`: the gateway
// drill must pass its own gates (affinity >= 1.5x round-robin's backend
// hit ratio with p99 no worse, a hedged tail cut inside the load band,
// clean failover and reload) and emit all six gateway scenarios.
func TestGwRun(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-gw", "-c", "4", "-d", "400ms"}, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("gateway drill failed its gate: %v", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	byLabel := map[string]summary{}
	for _, s := range rep.Scenarios {
		byLabel[s.Label] = s
	}
	for _, want := range []string{"gw_affinity", "gw_roundrobin", "gw_unhedged", "gw_hedged", "gw_failover", "gw_reload"} {
		if _, ok := byLabel[want]; !ok {
			t.Fatalf("scenario %q missing from report: %+v", want, rep.Scenarios)
		}
	}
	aff, rr := byLabel["gw_affinity"], byLabel["gw_roundrobin"]
	if aff.BackendHitRatio < gwHitRatioGate*rr.BackendHitRatio {
		t.Errorf("drill passed but recorded hit ratios violate the gate: affinity %.3f vs roundrobin %.3f",
			aff.BackendHitRatio, rr.BackendHitRatio)
	}
	if h := byLabel["gw_hedged"]; h.BackendSendRatio <= 0 {
		t.Errorf("hedged arm recorded no backend sends: ratio %v", h.BackendSendRatio)
	}
	if fo := byLabel["gw_failover"]; fo.StatusCounts["500"] != 0 || fo.StatusCounts["502"] != 0 {
		t.Errorf("failover scenario recorded 5xx: %v", fo.StatusCounts)
	}
}

// TestChaosRun is the in-process version of `make chaos-smoke`: the
// drill must pass its own gate (no 500s, nonzero sheds) and emit the
// chaos report block with both fleets present.
func TestChaosRun(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-chaos", "-c", "12", "-d", "700ms"}, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("chaos drill failed its gate: %v", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	if len(rep.Scenarios) != 2 || rep.Scenarios[0].Label != "chaos_patient" ||
		rep.Scenarios[1].Label != "chaos_abandoning" {
		t.Fatalf("want the patient and abandoning fleets, got %+v", rep.Scenarios)
	}
	if rep.Chaos == nil {
		t.Fatal("report has no chaos block")
	}
	if rep.Chaos.Sheds == 0 {
		t.Error("drill shed nothing yet passed — the gate is broken")
	}
	if rep.Chaos.ServerError500s != 0 {
		t.Errorf("daemon answered %d 500s under chaos", rep.Chaos.ServerError500s)
	}
	for _, s := range rep.Scenarios {
		if s.StatusCounts["200"] == 0 {
			t.Errorf("%s: no request ever succeeded", s.Label)
		}
		if s.StatusCounts["500"] != 0 {
			t.Errorf("%s: clients saw %d 500s", s.Label, s.StatusCounts["500"])
		}
		if s.Errors != 0 {
			t.Errorf("%s: %d transport errors that were not client timeouts", s.Label, s.Errors)
		}
	}
	if rep.Scenarios[1].ClientTimeouts == 0 {
		t.Error("abandoning fleet never abandoned a request")
	}
}

// TestChaosScrapeFailsClosed pins that the chaos verdict never reads an
// absent series as zero: a page missing any series the gates read is an
// error, and a 500 counts whatever the label order.
func TestChaosScrapeFailsClosed(t *testing.T) {
	full := []string{
		`swcc_http_requests_total{code="500",path="/v1/bus"} 3`,
		`swcc_http_requests_total{path="/v1/bus",code="200"} 9`,
		`swcc_http_sheds_total 4`,
		`swcc_http_cancels_total 2`,
		`swcc_fault_injections_total{kind="error"} 5`,
		`swcc_fault_injections_total{kind="latency"} 6`,
	}
	serveLines := func(lines []string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, strings.Join(lines, "\n"))
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}

	stats, err := scrapeChaosStats(serveLines(full))
	if err != nil {
		t.Fatalf("complete page: %v", err)
	}
	want := chaosStats{Sheds: 4, Cancels: 2, InjectedErrors: 5, InjectedLatency: 6, ServerError500s: 3}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}

	for _, drop := range []string{"swcc_http_requests_total", "swcc_http_sheds_total",
		"swcc_http_cancels_total", `kind="error"`, `kind="latency"`} {
		var page []string
		for _, l := range full {
			if !strings.Contains(l, drop) {
				page = append(page, l)
			}
		}
		if _, err := scrapeChaosStats(serveLines(page)); err == nil {
			t.Errorf("page without %s passed the scrape", drop)
		}
	}
}
