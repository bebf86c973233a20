package sweep

import (
	"context"
	"testing"

	"swcc/internal/core"
)

// TestBatchGroups pins the grouping contract: canonically equal points
// share a group regardless of differences in parameters their scheme
// ignores, groups appear in first-occurrence order, and each group is
// sorted population-ascending with input order breaking ties.
func TestBatchGroups(t *testing.T) {
	pMid := core.MiddleParams()
	// Base ignores shd, so these two are canonically equal for Base but
	// distinct for Dragon.
	pShd, err := pMid.With("shd", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	points := []Point{
		{Scheme: core.Base{}, Params: pMid, NProc: 32},   // group 0
		{Scheme: core.Dragon{}, Params: pMid, NProc: 8},  // group 1
		{Scheme: core.Base{}, Params: pShd, NProc: 4},    // group 0 (shd unused by Base)
		{Scheme: core.Dragon{}, Params: pShd, NProc: 2},  // group 2 (shd used by Dragon)
		{Scheme: core.Base{}, Params: pMid, NProc: 4},    // group 0, ties with index 2
		{Scheme: core.Dragon{}, Params: pMid, NProc: 64}, // group 1
	}
	groups := BatchGroups(len(points), func(i int) (core.Scheme, core.Params, int) {
		return points[i].Scheme, points[i].Params, points[i].NProc
	})
	want := [][]int{{2, 4, 0}, {1, 5}, {3}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups %v, want %d", len(groups), groups, len(want))
	}
	for g := range want {
		if len(groups[g]) != len(want[g]) {
			t.Fatalf("group %d = %v, want %v", g, groups[g], want[g])
		}
		for j := range want[g] {
			if groups[g][j] != want[g][j] {
				t.Fatalf("group %d = %v, want %v", g, groups[g], want[g])
			}
		}
	}
}

// TestEngineBatchGroupingBitIdentical runs the same grid through a
// grouped (cached) engine and a fresh uncached one: results must agree
// bit for bit, including points fed in population-descending order and
// duplicates, and errors must match the ungrouped path's text.
func TestEngineBatchGroupingBitIdentical(t *testing.T) {
	pMid := core.MiddleParams()
	var points []Point
	// Population-descending duplicates across two schemes: the grouped
	// path must sort, extend, and still answer in input order.
	for _, n := range []int{64, 8, 32, 8, 128, 1} {
		points = append(points,
			Point{Scheme: core.Base{}, Params: pMid, NProc: n},
			Point{Scheme: core.SoftwareFlush{}, Params: pMid, NProc: n},
		)
	}
	got := New(4).EvaluateBus(points, core.BusCosts())
	want := (&Engine{Workers: 1}).EvaluateBus(points, core.BusCosts())
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("point %d: err %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Bus != want[i].Bus {
			t.Fatalf("point %d: grouped %+v, ungrouped %+v", i, got[i].Bus, want[i].Bus)
		}
	}
}

// TestEngineBatchGroupingErrors: an invalid point inside a group errors
// with the same message the ungrouped path produces, without poisoning
// its canonically-equal valid neighbors.
func TestEngineBatchGroupingErrors(t *testing.T) {
	pMid := core.MiddleParams()
	bad := pMid
	bad.Shd = 2.0 // invalid, but unused by Base: canonically equal to pMid
	points := []Point{
		{Scheme: core.Base{}, Params: bad, NProc: 8},
		{Scheme: core.Base{}, Params: pMid, NProc: 16},
		{Scheme: core.Base{}, Params: pMid, NProc: 0}, // nproc error
		{Scheme: core.Base{}, Params: pMid, NProc: 4},
	}
	got := New(1).EvaluateBus(points, core.BusCosts())
	ref := NewEvaluator()
	for i, pt := range points {
		wantBus, wantErr := ref.BusPointCtx(context.Background(), pt.Scheme, pt.Params, core.BusCosts(), pt.NProc)
		if wantErr != nil {
			if got[i].Err == nil || got[i].Err.Error() != wantErr.Error() {
				t.Errorf("point %d: err %v, want %v", i, got[i].Err, wantErr)
			}
			continue
		}
		if got[i].Err != nil {
			t.Errorf("point %d: unexpected err %v", i, got[i].Err)
			continue
		}
		if got[i].Bus != wantBus {
			t.Errorf("point %d: %+v, want %+v", i, got[i].Bus, wantBus)
		}
	}
}

// TestCurveRunPublishes: after a run finishes, its longest curve is in
// the shared cache, so a later cold query is a pure hit.
func TestCurveRunPublishes(t *testing.T) {
	ev := NewEvaluator()
	p := core.MiddleParams()
	costs := core.BusCosts()
	points := []Point{
		{Scheme: core.Base{}, Params: p, NProc: 4},
		{Scheme: core.Base{}, Params: p, NProc: 64},
		{Scheme: core.Base{}, Params: p, NProc: 16},
	}
	eng := &Engine{Workers: 1, Cache: ev}
	if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.CurveEntries != 1 {
		t.Errorf("CurveEntries = %d, want 1 (one key, one published curve)", st.CurveEntries)
	}
	if st.MVASolves != st.CurveExtends+st.CurveFullSolves {
		t.Errorf("MVASolves %d != extends %d + fulls %d", st.MVASolves, st.CurveExtends, st.CurveFullSolves)
	}
	before := ev.Stats()
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, p, costs, 64); err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()
	if after.MVASolves != before.MVASolves {
		t.Errorf("query at the published length re-solved; run did not publish")
	}
	if after.MVAHits != before.MVAHits+1 {
		t.Errorf("MVAHits %d -> %d, want +1", before.MVAHits, after.MVAHits)
	}
}

// TestSlicePoolRoundTrip pins the pool's class arithmetic: acquired
// lengths are exact, capacities are class sizes, and recycled buffers
// come back zeroed.
func TestSlicePoolRoundTrip(t *testing.T) {
	var p SlicePool[int]
	for _, n := range []int{0, 1, 7, 8, 9, 100, 4096, 1 << 18, 1<<18 + 1} {
		s := p.Acquire(n)
		if len(*s) != n {
			t.Fatalf("Acquire(%d): len %d", n, len(*s))
		}
		if n > 0 && n <= 1<<18 && cap(*s)&(cap(*s)-1) != 0 {
			t.Fatalf("Acquire(%d): cap %d not a power of two", n, cap(*s))
		}
		for i := range *s {
			(*s)[i] = i + 1
		}
		p.Release(s)
	}
	s := p.Acquire(8)
	for i, v := range *s {
		if v != 0 {
			t.Fatalf("recycled buffer not cleared: [%d] = %d", i, v)
		}
	}
}
