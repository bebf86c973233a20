package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

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
	// trace at this block size.
	pops, err := tracegen.Preset("pops")
	if err != nil {
		t.Fatal(err)
	}
	pops.InstrPerCPU = int(float64(pops.InstrPerCPU) * opt.TraceScale)
	shared := streamKey{pops, 16}

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
// RunCtx and RunAllCtx report the cancellation and the call's memo
// measures and simulates nothing.
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
	// Neither of RunAllCtx's lanes starts an experiment.
	computed = nil
	if _, err := RunAllCtx(ctx, Options{TraceScale: 0.05}, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAllCtx on a cancelled context returned %v, want context.Canceled", err)
	}
	if len(computed) != 0 {
		t.Errorf("RunAllCtx: ran %d measurements or simulations after cancellation", len(computed))
	}
}

// TestEachTracePreparedOnce: a call regenerating the whole registry
// generates, validates and links each distinct trace configuration
// exactly once, however many experiments read it and however many
// simulations and measurements of it they run.
func TestEachTracePreparedOnce(t *testing.T) {
	var mu sync.Mutex
	prepared := map[tracegen.Config]int{}
	testHookPrepared = func(gen tracegen.Config, tr *trace.Trace) {
		mu.Lock()
		prepared[gen]++
		mu.Unlock()
	}
	defer func() { testHookPrepared = nil }()

	if _, err := RunAllCtx(context.Background(), Options{TraceScale: 0.05}, 0); err != nil {
		t.Fatal(err)
	}
	gens := map[int]bool{}
	for gen, c := range prepared {
		gens[gen.NCPU] = true
		if c != 1 {
			t.Errorf("%s (%d CPUs, %d-byte blocks) prepared %d times", gen.Name, gen.NCPU, gen.BlockSize, c)
		}
	}
	// blocksize's five block sizes of pops (its 16-byte one shared
	// with fig1, fig2, scenarios and table7), scenarios' timeshare,
	// message and pero (pero shared with table7), table7's thor,
	// fig3's pero8 and fig10sim's 16-processor trace.
	if len(prepared) != 11 {
		t.Errorf("%d distinct trace configurations prepared, want 11", len(prepared))
	}
	for _, n := range []int{4, 8, 16} {
		if !gens[n] {
			t.Errorf("no %d-processor trace prepared", n)
		}
	}
}

// TestRunAllHoldsOneTrace: a call regenerating the whole registry never
// holds two prepared traces at once. Every trace is released before
// the next is prepared, and none outlives the call.
func TestRunAllHoldsOneTrace(t *testing.T) {
	var mu sync.Mutex
	live := map[*trace.Trace]tracegen.Config{}
	prepares := 0
	testHookPrepared = func(gen tracegen.Config, tr *trace.Trace) {
		mu.Lock()
		defer mu.Unlock()
		prepares++
		for _, other := range live {
			t.Errorf("%s (%d CPUs, %d-byte blocks) prepared while %s (%d CPUs, %d-byte blocks) is live",
				gen.Name, gen.NCPU, gen.BlockSize, other.Name, other.NCPU, other.BlockSize)
		}
		live[tr] = gen
	}
	testHookReleased = func(gen tracegen.Config, tr *trace.Trace) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := live[tr]; !ok {
			t.Errorf("%s released but not live", gen.Name)
		}
		delete(live, tr)
	}
	defer func() { testHookPrepared, testHookReleased = nil, nil }()

	// More slots than experiments that read traces, so nothing but
	// the lane keeps them apart.
	if _, err := RunAllCtx(context.Background(), Options{TraceScale: 0.05}, 2*len(traceLane)); err != nil {
		t.Fatal(err)
	}
	if prepares == 0 {
		t.Fatal("no trace prepared")
	}
	for _, gen := range live {
		t.Errorf("%s (%d CPUs) still live after the call", gen.Name, gen.NCPU)
	}
}

// TestTraceLaneDeclaresTraceReaders: traceLane is the only declaration
// of which experiments read traces, so it must name each of them, once,
// and nothing else. Run alone, every experiment on it prepares a trace
// and no other experiment does.
func TestTraceLaneDeclaresTraceReaders(t *testing.T) {
	var mu sync.Mutex
	prepares := 0
	testHookPrepared = func(tracegen.Config, *trace.Trace) {
		mu.Lock()
		prepares++
		mu.Unlock()
	}
	defer func() { testHookPrepared = nil }()

	onLane := map[string]bool{}
	for _, id := range traceLane {
		if onLane[id] {
			t.Errorf("%s is on traceLane twice", id)
		}
		onLane[id] = true
		if _, err := ByID(id); err != nil {
			t.Errorf("traceLane: %v", err)
		}
	}
	for _, spec := range All() {
		prepares = 0
		if _, err := RunCtx(context.Background(), spec.ID, Options{TraceScale: 0.05}); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		switch {
		case onLane[spec.ID] && prepares == 0:
			t.Errorf("%s is on traceLane but prepared no trace", spec.ID)
		case !onLane[spec.ID] && prepares > 0:
			t.Errorf("%s prepared %d traces but is not on traceLane", spec.ID, prepares)
		}
	}
}
