package sweep

import (
	"context"
	"math/rand/v2"
	"testing"

	"swcc/internal/core"
)

// TestBatchGroups pins the grouping contract: canonically equal points
// share a group regardless of differences in parameters their scheme
// ignores, groups appear in first-occurrence order, and each group lists
// its points in input order.
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
		{Scheme: core.Base{}, Params: pMid, NProc: 4},    // group 0
		{Scheme: core.Dragon{}, Params: pMid, NProc: 64}, // group 1
	}
	groups := BatchGroups(len(points), func(i int) (core.Scheme, core.Params) {
		return points[i].Scheme, points[i].Params
	})
	want := [][]int{{0, 2, 4}, {1, 5}, {3}}
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
	// Population-descending duplicates across two schemes: each group's
	// one curve must answer every point, in input order.
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

// TestEngineGroupPublishes: after a batch group is answered, its curve
// is in the shared cache, so a later cold query is a pure hit.
func TestEngineGroupPublishes(t *testing.T) {
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
		t.Errorf("query at the group's largest size re-solved; the group did not publish")
	}
	if after.MVAHits != before.MVAHits+1 {
		t.Errorf("MVAHits %d -> %d, want +1", before.MVAHits, after.MVAHits)
	}
}

// TestBatchGroupIsOneSolve: a group is one cache query at its largest
// machine size. Populations 512 down to 1 of one workload, with
// duplicates, cost exactly one cold solve straight to length 512 — no
// extension, no per-point lookup — and publish one curve holding no
// spare capacity.
func TestBatchGroupIsOneSolve(t *testing.T) {
	const n = 512
	costs := core.BusCosts()
	p := core.MiddleParams()
	var points []Point
	for k := n; k >= 1; k-- {
		points = append(points, Point{Scheme: core.Dragon{}, Params: p, NProc: k})
		if k%64 == 0 {
			points = append(points, Point{Scheme: core.Dragon{}, Params: p, NProc: k})
		}
	}
	ev := NewEvaluator()
	got := (&Engine{Workers: 2, Cache: ev}).EvaluateBus(points, costs)
	want, err := core.EvaluateBus(core.Dragon{}, p, costs, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Bus != want[r.Point.NProc-1] {
			t.Fatalf("point %d (nproc %d): %+v, uncached %+v", i, r.Point.NProc, r.Bus, want[r.Point.NProc-1])
		}
	}
	st := ev.Stats()
	if st.CurveFullSolves != 1 || st.CurveExtends != 0 || st.MVAHits != 0 {
		t.Errorf("group cost %d full solves, %d extends, %d hits; want 1, 0, 0",
			st.CurveFullSolves, st.CurveExtends, st.MVAHits)
	}
	if st.CurveEntries != 1 {
		t.Errorf("CurveEntries = %d, want 1", st.CurveEntries)
	}
	d, err := core.ComputeDemand(core.Dragon{}, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	key := curveKey(d)
	sh := &ev.curves[key.shard()]
	sh.mu.RLock()
	sl, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok || len(sl.v) != n || cap(sl.v) != n {
		t.Errorf("published curve ok=%v len %d cap %d, want len == cap == %d", ok, len(sl.v), cap(sl.v), n)
	}
}

// TestEngineRandomBatchesBitIdentical is the grouping property over
// seeded random batches: 1-12 points each over three workloads and
// three schemes, procs 1..300 in any order, duplicates, and raw-invalid
// points whose canonical key equals a valid one's (Base ignores shd and
// apl). Through one shared cached engine — so later batches hit and
// extend what earlier ones published — every result must be
// bit-identical to the uncached engine's, with the same error text.
func TestEngineRandomBatchesBitIdentical(t *testing.T) {
	costs := core.BusCosts()
	rng := rand.New(rand.NewPCG(35, 1))
	schemes := []core.Scheme{core.Base{}, core.SoftwareFlush{}, core.Dragon{}}
	var workloads []core.Params
	for _, shd := range []float64{0.05, 0.3, 0.7} {
		p, err := core.MiddleParams().With("shd", shd)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, p)
	}
	cached := New(4)
	uncached := &Engine{Workers: 1}
	for b := 0; b < 300; b++ {
		points := make([]Point, 1+rng.IntN(12))
		for i := range points {
			if i > 0 && rng.IntN(4) == 0 {
				points[i] = points[rng.IntN(i)] // duplicate
				continue
			}
			pt := Point{
				Scheme: schemes[rng.IntN(len(schemes))],
				Params: workloads[rng.IntN(len(workloads))],
				NProc:  1 + rng.IntN(300),
			}
			switch rng.IntN(8) {
			case 0:
				pt.Params.Shd = 2
			case 1:
				pt.Params.APL = -5
			}
			points[i] = pt
		}
		got := cached.EvaluateBus(points, costs)
		want := uncached.EvaluateBus(points, costs)
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) ||
				(got[i].Err != nil && got[i].Err.Error() != want[i].Err.Error()) {
				t.Fatalf("batch %d point %d: err %v, uncached %v", b, i, got[i].Err, want[i].Err)
			}
			if got[i].Bus != want[i].Bus {
				t.Fatalf("batch %d point %d: %+v, uncached %+v", b, i, got[i].Bus, want[i].Bus)
			}
		}
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
