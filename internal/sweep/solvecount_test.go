package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swcc/internal/core"
)

// countingDirect wraps the uncached evaluator and counts BusPower calls;
// each call is exactly one ComputeDemand plus one MVA recursion, so the
// count is the solve cost a bisection pays without memoization.
type countingDirect struct {
	calls int
	ev    core.PowerEvaluator
}

func (c *countingDirect) BusPower(s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (float64, error) {
	c.calls++
	return c.ev.BusPower(s, p, costs, nproc)
}

// TestAPLToMatchSolveReduction is the cache-effectiveness acceptance
// criterion: repeated APLToMatch analyses (the advisor and the crossover
// experiment re-ask the same questions) must cost at least 5x fewer MVA
// solves through the memoizing evaluator than fresh solving would.
func TestAPLToMatchSolveReduction(t *testing.T) {
	costs := core.BusCosts()
	targets := []core.Scheme{core.NoCache{}, core.Dragon{}}
	shds := []float64{0.08, 0.25, 0.42}
	const repeats = 10

	run := func(ev core.PowerEvaluator) {
		for rep := 0; rep < repeats; rep++ {
			for _, shd := range shds {
				p, err := core.MiddleParams().With("shd", shd)
				if err != nil {
					t.Fatal(err)
				}
				for _, target := range targets {
					if _, _, err := core.APLToMatchWith(ev, target, p, costs, 16); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	direct := &countingDirect{ev: core.Direct()}
	run(direct)

	cached := NewEvaluator()
	run(cached)
	st := cached.Stats()

	if direct.calls == 0 || st.MVASolves == 0 {
		t.Fatalf("degenerate counts: direct=%d cached=%+v", direct.calls, st)
	}
	// Every direct BusPower call is one MVA solve.
	if uint64(direct.calls) < 5*st.MVASolves {
		t.Errorf("MVA solves: direct %d vs cached %d — less than the required 5x reduction",
			direct.calls, st.MVASolves)
	}
	t.Logf("APLToMatch x%d: %d fresh solves -> %d cached MVA solves (%.1fx)",
		repeats*len(shds)*len(targets), direct.calls, st.MVASolves,
		float64(direct.calls)/float64(st.MVASolves))

	// The cached answers are still bit-identical to fresh ones.
	for _, shd := range shds {
		p, err := core.MiddleParams().With("shd", shd)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			aplC, foundC, err := core.APLToMatchWith(cached, target, p, costs, 16)
			if err != nil {
				t.Fatal(err)
			}
			aplF, foundF, err := core.APLToMatch(target, p, costs, 16)
			if err != nil {
				t.Fatal(err)
			}
			if aplC != aplF || foundC != foundF {
				t.Errorf("shd=%.2f target=%s: cached (%v,%v) != fresh (%v,%v)",
					shd, target.Name(), aplC, foundC, aplF, foundF)
			}
		}
	}
}

// TestSingleflightColdKeyRace is the dedup acceptance criterion: N
// goroutines racing one cold curve key must cost exactly 1 MVA solve —
// the leader's — with the other N-1 waiting on the in-flight solve and
// sharing its result. Half the racers are BusPointCtx queries and half
// are engine batches whose one group (several machine sizes of the same
// workload) is one query at its largest size. The leader parks before
// solving until the evaluator's wait hook has seen all N-1 racers commit
// to waiting, so the count assertions are deterministic, not
// timing-dependent; a racer that never parks (solving on its own
// instead) fails the assertions after the leader's timeout rather than
// hanging the test.
func TestSingleflightColdKeyRace(t *testing.T) {
	const n = 16
	ev := NewEvaluator()
	release := make(chan struct{})
	var timedOut atomic.Bool
	ev.solveHook = func() {
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			timedOut.Store(true)
		}
	}
	var parked atomic.Int32
	ev.waitHook = func() {
		if parked.Add(1) == n-1 {
			close(release)
		}
	}

	costs := core.BusCosts()
	p := core.MiddleParams()
	group := []Point{
		{Scheme: core.Base{}, Params: p, NProc: 9},
		{Scheme: core.Base{}, Params: p, NProc: 16},
		{Scheme: core.Base{}, Params: p, NProc: 4},
	}
	eng := &Engine{Workers: 1, Cache: ev}
	points := make([]core.BusPoint, n)
	batches := make([][]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				points[i], errs[i] = ev.BusPointCtx(context.Background(), core.Base{}, p, costs, 16)
				return
			}
			batches[i] = eng.EvaluateBusCtx(context.Background(), group, costs)
			errs[i] = FirstError(batches[i])
		}(i)
	}
	wg.Wait()

	want, err := core.EvaluateBus(core.Base{}, p, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Errorf("only %d of %d racers parked on the in-flight solve", parked.Load(), n-1)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if batches[i] == nil {
			if points[i] != want[15] {
				t.Errorf("goroutine %d: point %+v != fresh %+v", i, points[i], want[15])
			}
			continue
		}
		for _, r := range batches[i] {
			if r.Bus != want[r.Point.NProc-1] {
				t.Errorf("goroutine %d: nproc %d point %+v != fresh %+v", i, r.Point.NProc, r.Bus, want[r.Point.NProc-1])
			}
		}
	}
	st := ev.Stats()
	if st.MVASolves != 1 {
		t.Errorf("N concurrent cold requests cost %d solves, want exactly 1", st.MVASolves)
	}
	if st.MVADedups != n-1 {
		t.Errorf("MVADedups = %d, want %d", st.MVADedups, n-1)
	}
	if st.MVAHits != 0 {
		t.Errorf("MVAHits = %d, want 0 (no entry existed to hit)", st.MVAHits)
	}
	if st.CurveEntries != 1 {
		t.Errorf("CurveEntries = %d, want 1", st.CurveEntries)
	}
}
