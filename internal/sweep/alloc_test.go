//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make testing.AllocsPerRun counts
// unreliable, so `go test -race` (the make-check default) skips these and
// `make alloc-check` runs them without instrumentation.

package sweep

import (
	"context"
	"runtime"
	"testing"

	"swcc/internal/core"
)

// TestBusPointWarmPathAllocFree pins the tentpole number: a warm
// (curve-hit) BusPoint query allocates nothing, for every registered
// scheme — the demand computed on every query included.
func TestBusPointWarmPathAllocFree(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	for _, info := range core.RegisteredSchemes() {
		if _, err := ev.BusPointCtx(context.Background(), info.Scheme, p, costs, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, info := range core.RegisteredSchemes() {
		s := info.Scheme
		var err error
		if avg := testing.AllocsPerRun(200, func() {
			_, err = ev.BusPointCtx(context.Background(), s, p, costs, 64)
		}); avg != 0 {
			t.Errorf("%s: warm BusPoint allocates %.1f/op, want 0", core.SchemeKey(s), avg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluateBusIntoWarmAllocFree: the full-curve path is also
// allocation-free when the caller provides the result buffer.
func TestEvaluateBusIntoWarmAllocFree(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	ctx := context.Background()
	if _, err := ev.EvaluateBusCtx(ctx, core.Base{}, p, costs, 64, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]core.BusPoint, 0, 64)
	var err error
	if avg := testing.AllocsPerRun(200, func() {
		_, err = ev.EvaluateBusCtx(ctx, core.Base{}, p, costs, 64, dst)
	}); avg != 0 {
		t.Errorf("warm EvaluateBusCtx into dst allocates %.1f/op, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmExtendAllocBudget bounds the miss path that matters most
// after the incremental kernel: extending a resident curve. One extend
// costs the new backing array, the singleflight bookkeeping, and cache
// publication — a handful of allocations, independent of how many
// populations the extension adds. The budget is a tripwire against
// quietly reintroducing per-population or per-point allocations.
func TestWarmExtendAllocBudget(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, p, costs, 8); err != nil {
		t.Fatal(err)
	}
	n := 8
	var err error
	avg := testing.AllocsPerRun(100, func() {
		n += 8
		_, err = ev.BusPointCtx(context.Background(), core.Base{}, p, costs, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12
	if avg > budget {
		t.Errorf("warm extend allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestColdCurveAllocBytes pins the cached curve's encoding: a cold
// 512-population BusPoint query allocates one float64 per population
// plus a small constant for the flight and the cache slot — not a
// full MVA result struct per population.
func TestColdCurveAllocBytes(t *testing.T) {
	const n, queries = 512, 64
	costs := core.BusCosts()
	ev := NewEvaluator()
	params := make([]core.Params, queries)
	for i := range params {
		p, err := core.MiddleParams().With("shd", 0.1+0.8*float64(i)/queries)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = p
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range params {
		if _, err := ev.BusPointCtx(ctx, core.Dragon{}, p, costs, n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := ev.Stats().CurveFullSolves; got != queries {
		t.Fatalf("%d cold solves, want %d: the workloads share curves", got, queries)
	}
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	t.Logf("cold %d-population query: %d bytes", n, perQuery)
	if budget := uint64(8*n + 1024); perQuery > budget {
		t.Errorf("cold %d-population query allocates %d bytes, budget %d", n, perQuery, budget)
	}
}
