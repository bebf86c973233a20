package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"swcc/internal/sim"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// simDigests pins the simulation-backed artifacts at the default
// options: SHA-256 of the rendered text followed by the full-precision
// JSON, so a change to any simulated statistic, even one the text
// rounds away, changes the digest. The golden files cover the analytic
// artifacts; these are too slow to regenerate as text goldens and are
// pinned here instead.
var simDigests = map[string]string{
	"blocksize": "b5475373f86587b5c3ca93451706d9c73008094c6bf4c0bc2b33d293e19bff37",
	"fig1":      "f23eec0251802af4c10ea60a8eaeeaea590abd2c1d2fe040c384c5633e6cb2f2",
	"fig10sim":  "6cb539e7a838fa7a4e6af3949d62703c7ae9c51b489d87612d9bd34585eea4d4",
	"fig2":      "21cd71fc6d596f7c9868fb7e0ec04ee24ab9f3218fd6d4eaee4d4b73ac1f56b0",
	"fig3":      "8ed9733ade4c96b5cdd771e2a5e7d21fe55c83b3e3dd0599436589de3071176c",
	"packetsim": "0b2fe8c7b1c52a8712cfec193f0e080f32338b4b36e190613335628e892fed30",
	"patel":     "80ff559f3d7b1f54536b7b201787cc3c087b43f526c5c440fd8e27fa9d96cf16",
	"scenarios": "64a7c055b7265201f488f05ebb92c3bf10268cbdc5424c175a223d2254a79f75",
	"table7":    "39c225d604872970fa7e73bcdc0456ca8a459d3c0ae3708ec204e70c63519ab7",
}

func datasetDigest(t *testing.T, ds *Dataset) string {
	t.Helper()
	text, err := ds.Render()
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := ds.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(text))
	h.Write(js.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulationDigests regenerates the whole registry in one call, the
// way `cohere all` does, and checks every simulation-backed artifact
// against its pinned digest.
func TestSimulationDigests(t *testing.T) {
	datasets, err := RunAllCtx(context.Background(), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, ds := range datasets {
		want, ok := simDigests[ds.ID]
		if !ok {
			continue
		}
		seen++
		if got := datasetDigest(t, ds); got != want {
			t.Errorf("%s: digest %s, want %s", ds.ID, got, want)
		}
	}
	if seen != len(simDigests) {
		t.Errorf("checked %d of %d pinned artifacts", seen, len(simDigests))
	}
}

// TestMemoScope: within one call every distinct measurement and
// simulation runs exactly once, however many experiments need it, and
// nothing carries over to the next call.
func TestMemoScope(t *testing.T) {
	var mu sync.Mutex
	counts := map[any]int{}
	testHookComputed = func(k any) {
		mu.Lock()
		counts[k]++
		mu.Unlock()
	}
	defer func() { testHookComputed = nil }()

	opt := Options{TraceScale: 0.05}
	// fig1, fig2, blocksize, table7 and scenarios all measure this
	// trace under this cache.
	pops, err := tracegen.Preset("pops")
	if err != nil {
		t.Fatal(err)
	}
	pops.InstrPerCPU = int(float64(pops.InstrPerCPU) * opt.TraceScale)
	shared := extractKey{pops, sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}}

	for call := 1; call <= 2; call++ {
		if _, err := RunAllCtx(context.Background(), opt, 0); err != nil {
			t.Fatal(err)
		}
		if counts[shared] != call {
			t.Errorf("call %d: shared pops measurement computed %d times in all", call, counts[shared])
		}
		for k, c := range counts {
			if c != call {
				t.Errorf("call %d: %+v computed %d times in all, want once per call", call, k, c)
			}
		}
	}

	clear(counts)
	for call := 1; call <= 2; call++ {
		if _, err := RunCtx(context.Background(), "fig2", opt); err != nil {
			t.Fatal(err)
		}
		for k, c := range counts {
			if c != call {
				t.Errorf("RunCtx call %d: %+v computed %d times in all, want once per call", call, k, c)
			}
		}
	}
}

// TestRunCtxCancelledRunsNoSimulation: the trace-driven and network
// simulation experiments honour a context that is already cancelled.
// RunCtx reports the cancellation and the call's memo measures and
// simulates nothing.
func TestRunCtxCancelledRunsNoSimulation(t *testing.T) {
	var mu sync.Mutex
	var computed []any
	testHookComputed = func(k any) {
		mu.Lock()
		computed = append(computed, k)
		mu.Unlock()
	}
	defer func() { testHookComputed = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig10sim", "fig1", "scenarios", "patel", "packetsim"} {
		computed = nil
		if _, err := RunCtx(ctx, id, Options{TraceScale: 0.05}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: RunCtx on a cancelled context returned %v, want context.Canceled", id, err)
		}
		if len(computed) != 0 {
			t.Errorf("%s: ran %d measurements or simulations after cancellation", id, len(computed))
		}
	}
}

// TestEachTracePreparedOnce: a call regenerating the whole registry
// validates and links each trace it generates exactly once, however
// many simulations and measurements of it the experiments run.
func TestEachTracePreparedOnce(t *testing.T) {
	var mu sync.Mutex
	prepared := map[*trace.Trace]int{}
	gens := map[int]bool{}
	testHookPrepared = func(gen tracegen.Config, tr *trace.Trace) {
		mu.Lock()
		prepared[tr]++
		gens[gen.NCPU] = true
		mu.Unlock()
	}
	defer func() { testHookPrepared = nil }()

	if _, err := RunAllCtx(context.Background(), Options{TraceScale: 0.05}, 0); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d traces prepared", len(prepared))
	for tr, c := range prepared {
		if c != 1 {
			t.Errorf("%d-processor trace of %d records prepared %d times", tr.NCPU, len(tr.Refs), c)
		}
	}
	// fig1/fig2 (4 CPUs), fig3 (8) and fig10sim (16) all simulate from
	// prepared traces.
	for _, n := range []int{4, 8, 16} {
		if !gens[n] {
			t.Errorf("no %d-processor trace prepared", n)
		}
	}
}
