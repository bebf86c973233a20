package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"swcc/internal/core"
)

// TestEachCtxStopsClaimingAfterCancel pins the cooperative-cancellation
// contract on the sequential path, where ordering is deterministic:
// once ctx is cancelled, no further index runs, the skipped indices
// carry ctx's error, and EachCtx reports it.
func TestEachCtxStopsClaimingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := EachCtx(ctx, 1, 100, func(i int) error {
		ran++
		if i == 9 {
			cancel()
		}
		return nil
	})
	if ran != 10 {
		t.Errorf("ran %d indices after cancelling at index 9, want exactly 10", ran)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("EachCtx returned %v, want context.Canceled", err)
	}
}

// TestEachCtxParallelCancel checks the parallel path stops claiming new
// indices promptly: with the cancel fired early, far fewer than n
// callbacks run even on a many-worker pool.
func TestEachCtxParallelCancel(t *testing.T) {
	const n = 10000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := EachCtx(ctx, 8, n, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("EachCtx returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Errorf("%d of %d callbacks ran after early cancel; cancellation is not stopping the pool", got, n)
	}
}

// TestEachBackgroundUnchanged checks EachCtx under a context that is
// never cancelled runs every index and returns the lowest-index error.
func TestEachBackgroundUnchanged(t *testing.T) {
	var ran atomic.Int64
	err := EachCtx(context.Background(), 4, 64, func(i int) error {
		ran.Add(1)
		if i == 3 || i == 40 {
			return errors.New("boom")
		}
		return nil
	})
	if ran.Load() != 64 {
		t.Errorf("ran %d of 64 indices", ran.Load())
	}
	if err == nil || err.Error() != "boom" {
		t.Errorf("err = %v", err)
	}
}

// TestEvaluatorCtxFailsFast checks a done context short-circuits the
// evaluator entry points without touching the cache or counting a solve.
func TestEvaluatorCtxFailsFast(t *testing.T) {
	ev := NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := core.MiddleParams()
	costs := core.BusCosts()
	if _, err := ev.DemandCtx(ctx, core.Base{}, p, costs); !errors.Is(err, context.Canceled) {
		t.Errorf("DemandCtx on cancelled ctx: %v", err)
	}
	if _, err := ev.BusPointCtx(ctx, core.Base{}, p, costs, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("BusPointCtx on cancelled ctx: %v", err)
	}
	if _, err := ev.EvaluateBusCtx(ctx, core.Base{}, p, costs, 8, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateBusCtx on cancelled ctx: %v", err)
	}
	st := ev.Stats()
	if st.DemandSolves+st.MVASolves != 0 || st.DemandEntries+st.CurveEntries != 0 {
		t.Errorf("cancelled queries still did work: %+v", st)
	}
}

// signalingScheme parks every Frequencies call on release like
// blockingScheme, but first announces entry on entered, so a test can
// guarantee which goroutine is the singleflight leader.
type signalingScheme struct {
	inner   core.Scheme
	entered chan struct{}
	release chan struct{}
}

// Name labels the scheme for cache keys and error messages.
func (s signalingScheme) Name() string { return "signaling-" + s.inner.Name() }

// Frequencies announces entry, parks until released, then delegates.
func (s signalingScheme) Frequencies(p core.Params) ([]core.OpFreq, error) {
	close(s.entered)
	<-s.release
	return s.inner.Frequencies(p)
}

// TestSingleflightWaiterCancellable parks a waiter on a leader's
// in-flight solve, cancels the waiter, and checks it returns promptly
// with the context error while the leader — deliberately unaffected —
// still completes and publishes for future callers.
func TestSingleflightWaiterCancellable(t *testing.T) {
	ev := NewEvaluator()
	release := make(chan struct{})
	entered := make(chan struct{})
	scheme := signalingScheme{inner: core.Base{}, entered: entered, release: release}
	parked := make(chan struct{})
	ev.waitHook = func() { close(parked) }

	costs := core.BusCosts()
	p := core.MiddleParams()

	leaderDone := make(chan error, 1)
	go func() {
		_, err := ev.DemandCtx(context.Background(), scheme, p, costs)
		leaderDone <- err
	}()
	<-entered // the leader owns the flight before the waiter arrives

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := ev.DemandCtx(ctx, scheme, p, costs)
		waiterDone <- err
	}()

	<-parked // the waiter has committed to the in-flight solve
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the in-flight solve")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	st := ev.Stats()
	if st.DemandSolves != 1 {
		t.Errorf("DemandSolves = %d, want 1 (the leader's)", st.DemandSolves)
	}
	if st.DemandEntries != 1 {
		t.Errorf("DemandEntries = %d, want 1 (the leader still published)", st.DemandEntries)
	}
}
