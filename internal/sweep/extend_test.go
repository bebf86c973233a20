package sweep

import (
	"context"
	"sync"
	"testing"

	"swcc/internal/core"
	"swcc/internal/queueing"
)

// TestCurveExtendBitIdentical is the gate on the incremental kernel: an
// evaluator that grows a curve in stages (16, then 64, then 256) must
// return results bit-identical to one that solved 256 cold. No tolerance
// — the recursion is resumed, not re-derived.
func TestCurveExtendBitIdentical(t *testing.T) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	s := core.Base{}

	cold := NewEvaluator()
	want, err := cold.EvaluateBusCtx(context.Background(), s, p, costs, 256, nil)
	if err != nil {
		t.Fatal(err)
	}

	inc := NewEvaluator()
	for _, n := range []int{16, 64, 256} {
		got, err := inc.EvaluateBusCtx(context.Background(), s, p, costs, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stage %d: point %d differs:\n inc  %+v\n cold %+v",
					n, i+1, got[i], want[i])
			}
		}
	}

	st := inc.Stats()
	if st.CurveFullSolves != 1 {
		t.Errorf("CurveFullSolves = %d, want 1 (only the first solve is cold)", st.CurveFullSolves)
	}
	if st.CurveExtends != 2 {
		t.Errorf("CurveExtends = %d, want 2 (stages 64 and 256 resume)", st.CurveExtends)
	}
	if st.MVASolves != st.CurveExtends+st.CurveFullSolves {
		t.Errorf("MVASolves = %d, want CurveExtends+CurveFullSolves = %d",
			st.MVASolves, st.CurveExtends+st.CurveFullSolves)
	}
	if cs := cold.Stats(); cs.CurveExtends != 0 || cs.CurveFullSolves != 1 {
		t.Errorf("cold evaluator: extends %d fulls %d, want 0 and 1",
			cs.CurveExtends, cs.CurveFullSolves)
	}
}

// TestCurveExtendAcrossEviction: a capped evaluator that evicted the
// prefix entry must fall back to a cold full solve — and still produce
// bit-identical results. The extension path may only fire when a prefix
// is actually resident.
func TestCurveExtendAcrossEviction(t *testing.T) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	s := core.Base{}

	ev := NewEvaluatorCap(1) // effectively numShards entries, 1 per shard
	if _, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 16, nil); err != nil {
		t.Fatal(err)
	}
	// Flood the curve cache with distinct (think, service) keys until the
	// original curve's shard has evicted it. Distinct md values change the
	// demand and hence the mva key.
	base, err := ev.DemandCtx(context.Background(), s, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	key := mvaKey{base.Think(), base.Interconnect, base.Priority}
	for i := 0; i < 64*numShards; i++ {
		q, err := p.With("md", 0.3+float64(i)*1e-4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.BusPointCtx(context.Background(), s, q, costs, 4); err != nil {
			t.Fatal(err)
		}
		sh := &ev.curves[key.shard()]
		sh.mu.RLock()
		_, resident := sh.entries[key]
		sh.mu.RUnlock()
		if !resident {
			break
		}
	}
	sh := &ev.curves[key.shard()]
	sh.mu.RLock()
	_, resident := sh.entries[key]
	sh.mu.RUnlock()
	if resident {
		t.Fatal("could not evict the prefix curve; test setup broken")
	}

	extendsBefore := ev.Stats().CurveExtends
	got, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ext := ev.Stats().CurveExtends; ext != extendsBefore {
		t.Errorf("CurveExtends grew by %d after eviction; want a cold full solve", ext-extendsBefore)
	}
	want, err := NewEvaluator().EvaluateBusCtx(context.Background(), s, p, costs, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d differs after eviction-and-resolve", i+1)
		}
	}
}

// TestCurveExtendPrefixStableUnderSupersession races extenders against
// each other on one key: goroutines request ever-longer curves while
// others re-request short prefixes. Every returned curve must be
// bit-identical to the reference, whichever mix of hit, dedup-join,
// extend, and supersession each goroutine experienced. Run with -race
// this also checks the captured-prefix read outside the lock is sound.
func TestCurveExtendPrefixStableUnderSupersession(t *testing.T) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	s := core.Dragon{}

	ref, err := NewEvaluator().EvaluateBusCtx(context.Background(), s, p, costs, 520, nil)
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator()
	// Seed a short prefix so extensions are possible from the start.
	if _, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 8, nil); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range []int{8, 32, 128, 512, 64, 16} {
				n := n + w%4 // stagger lengths across workers
				got, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, n, nil)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Errorf("worker %d n=%d: point %d differs", w, n, i+1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.MVASolves != st.CurveExtends+st.CurveFullSolves {
		t.Errorf("MVASolves = %d != CurveExtends %d + CurveFullSolves %d",
			st.MVASolves, st.CurveExtends, st.CurveFullSolves)
	}
}

// TestCurveExtendAfterTableMemoSwap: extending a curve whose cost table
// fingerprint memo was swapped wholesale (the bounded tableMemo dropping
// its map) must still hit the same demand and curve entries — the caches
// key on content, not on the memo's pointer identity.
func TestCurveExtendAfterTableMemoSwap(t *testing.T) {
	p := core.MiddleParams()
	s := core.Base{}
	ev := NewEvaluator()
	costs := core.BusCosts()
	if _, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 16, nil); err != nil {
		t.Fatal(err)
	}
	// Overflow the pointer-keyed fingerprint memo so it swaps.
	for i := 0; i < tableMemoCap+8; i++ {
		if _, err := ev.DemandCtx(context.Background(), s, p, core.BusCosts()); err != nil {
			t.Fatal(err)
		}
	}
	if n := int(ev.tables.count.Load()); n > tableMemoCap {
		t.Fatalf("tableMemo grew to %d entries, cap %d", n, tableMemoCap)
	}
	before := ev.Stats()
	// A fresh, identical table after the swap: the demand cache must hit
	// (content-keyed) and the curve must extend from the cached prefix.
	got, err := ev.EvaluateBusCtx(context.Background(), s, p, core.BusCosts(), 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()
	if after.DemandSolves != before.DemandSolves {
		t.Errorf("demand re-solved after memo swap: %d -> %d", before.DemandSolves, after.DemandSolves)
	}
	if after.CurveExtends != before.CurveExtends+1 {
		t.Errorf("CurveExtends %d -> %d, want +1 (extend from cached 16-prefix)",
			before.CurveExtends, after.CurveExtends)
	}
	want, err := NewEvaluator().EvaluateBusCtx(context.Background(), s, p, costs, 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d differs after memo swap", i+1)
		}
	}
}

// TestEvaluateBusIntoReusesDst pins EvaluateBusCtx's dst buffer contract:
// sufficient capacity means the dst backing array is reused; results
// match the allocating path exactly.
func TestEvaluateBusIntoReusesDst(t *testing.T) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	ev := NewEvaluator()
	want, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]core.BusPoint, 0, 64)
	got, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 32, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("dst with sufficient capacity was not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs between Into and allocating paths", i+1)
		}
	}
}

// TestCurveSharedCoversLonger: a dedup join on a longer in-flight solve
// returns a slice longer than requested; the public paths must slice it
// to n. This pins curve()'s clone length.
func TestCurveSharedCoversLonger(t *testing.T) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	ev := NewEvaluator()
	if _, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 128, nil); err != nil {
		t.Fatal(err)
	}
	d, err := ev.DemandCtx(context.Background(), core.Base{}, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ev.curve(context.Background(), d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 5 {
		t.Fatalf("curve(5) returned %d results", len(c))
	}
	var want []queueing.SingleServerResult
	want, err = queueing.SingleServerMVA(d.Think(), d.Interconnect, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("population %d differs", i+1)
		}
	}
}
