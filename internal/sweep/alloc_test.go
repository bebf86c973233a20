//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make testing.AllocsPerRun counts
// unreliable, so `go test -race` (the make-check default) skips these and
// `make alloc-check` runs them without instrumentation.

package sweep

import (
	"context"
	"math/bits"
	"testing"

	"swcc/internal/core"
)

// TestBusPointWarmPathAllocFree pins the tentpole number: a warm
// (demand-hit, curve-hit) BusPoint query allocates nothing, for every
// paper scheme. Hybrid is excluded — its core.SchemeKey builds a string
// carrying the knob on every call (configured schemes pay for their key).
func TestBusPointWarmPathAllocFree(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	for _, s := range core.PaperSchemes() {
		if _, err := ev.BusPoint(s, p, costs, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range core.PaperSchemes() {
		s := s
		var err error
		if avg := testing.AllocsPerRun(200, func() {
			_, err = ev.BusPoint(s, p, costs, 64)
		}); avg != 0 {
			t.Errorf("%s: warm BusPoint allocates %.1f/op, want 0", s.Name(), avg)
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
	if _, err := ev.EvaluateBus(core.Base{}, p, costs, 64); err != nil {
		t.Fatal(err)
	}
	dst := make([]core.BusPoint, 0, 64)
	var err error
	if avg := testing.AllocsPerRun(200, func() {
		_, err = ev.EvaluateBusIntoCtx(ctx, core.Base{}, p, costs, 64, dst)
	}); avg != 0 {
		t.Errorf("warm EvaluateBusIntoCtx allocates %.1f/op, want 0", avg)
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
	if _, err := ev.BusPoint(core.Base{}, p, costs, 8); err != nil {
		t.Fatal(err)
	}
	n := 8
	var err error
	avg := testing.AllocsPerRun(100, func() {
		n += 8
		_, err = ev.BusPoint(core.Base{}, p, costs, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12
	if avg > budget {
		t.Errorf("warm extend allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestCurveRunAscendingAllocs pins geometric growth: a run walking
// populations 1..512 in order (a job grid's shape) reallocates its curve
// O(log n) times — one buffer per doubling plus the run itself — not
// once per population.
func TestCurveRunAscendingAllocs(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ctx := context.Background()
	ev := NewEvaluator()
	if _, err := ev.Demand(core.Dragon{}, p, costs); err != nil {
		t.Fatal(err)
	}
	const n = 512
	var err error
	avg := testing.AllocsPerRun(5, func() {
		// Never finished, so every run starts cold.
		var run *CurveRun
		if run, err = ev.StartCurveRun(ctx, core.Dragon{}, p, costs); err != nil {
			return
		}
		for k := 1; k <= n && err == nil; k++ {
			_, err = run.BusPointAt(ctx, k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if budget := float64(bits.Len(n) + 2); avg > budget {
		t.Errorf("ascending 1..%d run allocates %.1f times, want <= %.0f", n, avg, budget)
	}
}
