package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

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
	// Every direct BusPower call is one MVA solve (and one demand solve).
	if uint64(direct.calls) < 5*st.MVASolves {
		t.Errorf("MVA solves: direct %d vs cached %d — less than the required 5x reduction",
			direct.calls, st.MVASolves)
	}
	if uint64(direct.calls) < 5*st.DemandSolves {
		t.Errorf("demand solves: direct %d vs cached %d — less than the required 5x reduction",
			direct.calls, st.DemandSolves)
	}
	t.Logf("APLToMatch x%d: %d fresh solves -> %d cached MVA solves (%.1fx), %d demand solves (%.1fx)",
		repeats*len(shds)*len(targets), direct.calls, st.MVASolves,
		float64(direct.calls)/float64(st.MVASolves),
		st.DemandSolves, float64(direct.calls)/float64(st.DemandSolves))

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

// blockingScheme delegates to an inner scheme but parks every
// Frequencies call on a channel, so a test controls exactly when the
// singleflight leader's solve completes.
type blockingScheme struct {
	inner   core.Scheme
	release chan struct{}
}

func (b blockingScheme) Name() string { return "blocking-" + b.inner.Name() }

func (b blockingScheme) Frequencies(p core.Params) ([]core.OpFreq, error) {
	<-b.release
	return b.inner.Frequencies(p)
}

// TestSingleflightColdKeyRace is the dedup acceptance criterion: N
// goroutines racing one cold (scheme, params, table) key must cost
// exactly 1 ComputeDemand — the leader's — with the other N-1 waiting on
// the in-flight solve and sharing its result. The leader's solve parks
// inside the scheme until the evaluator's wait hook has seen all N-1
// racers commit to waiting, so the count assertions are deterministic,
// not timing-dependent.
func TestSingleflightColdKeyRace(t *testing.T) {
	const n = 16
	ev := NewEvaluator()
	release := make(chan struct{})
	scheme := blockingScheme{inner: core.Base{}, release: release}
	var parked atomic.Int32
	ev.waitHook = func() {
		if parked.Add(1) == n-1 {
			close(release)
		}
	}

	costs := core.BusCosts()
	p := core.MiddleParams()
	demands := make([]core.Demand, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			demands[i], errs[i] = ev.DemandCtx(context.Background(), scheme, p, costs)
		}(i)
	}
	wg.Wait()

	want, err := core.ComputeDemand(core.Base{}, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if demands[i] != want {
			t.Errorf("goroutine %d: demand %+v != fresh %+v", i, demands[i], want)
		}
	}
	st := ev.Stats()
	if st.DemandSolves != 1 {
		t.Errorf("N concurrent cold requests cost %d solves, want exactly 1", st.DemandSolves)
	}
	if st.DemandDedups != n-1 {
		t.Errorf("DemandDedups = %d, want %d", st.DemandDedups, n-1)
	}
	if st.DemandHits != 0 {
		t.Errorf("DemandHits = %d, want 0 (no entry existed to hit)", st.DemandHits)
	}
	if st.DemandEntries != 1 {
		t.Errorf("DemandEntries = %d, want 1", st.DemandEntries)
	}
}
