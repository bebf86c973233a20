package sweep

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"swcc/internal/core"
)

// randomParams draws every Table 7 parameter uniformly from its
// [low, high] range (the bounds swapped where the table orders by
// intensity rather than value, e.g. apl).
func randomParams(rng *rand.Rand) core.Params {
	p := core.MiddleParams()
	for _, f := range core.Fields() {
		lo, hi := f.Low, f.High
		if lo > hi {
			lo, hi = hi, lo
		}
		f.Set(&p, lo+rng.Float64()*(hi-lo))
	}
	return p
}

// TestEvaluatorMatchesFreshSolves is the cache-correctness property: for
// randomized workloads within the Table 7 ranges, the memoized evaluator
// returns bit-identical results to core.EvaluateBus — on the first query
// (miss path) and on the repeat (hit path).
func TestEvaluatorMatchesFreshSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ev := NewEvaluator()
	costs := core.BusCosts()
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		p := randomParams(rng)
		nproc := 1 + rng.Intn(64)
		for _, s := range allSchemes() {
			want, err := core.EvaluateBus(s, p, costs, nproc)
			if err != nil {
				t.Fatalf("trial %d %s: fresh solve: %v", trial, s.Name(), err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, nproc, nil)
				if err != nil {
					t.Fatalf("trial %d %s pass %d: %v", trial, s.Name(), pass, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s pass %d n=%d: got %+v, want %+v",
							trial, s.Name(), pass, i+1, got[i], want[i])
					}
				}
				pt, err := ev.BusPointCtx(context.Background(), s, p, costs, nproc)
				if err != nil {
					t.Fatalf("trial %d %s: BusPoint: %v", trial, s.Name(), err)
				}
				if pt != want[nproc-1] {
					t.Fatalf("trial %d %s: BusPoint %+v != curve point %+v", trial, s.Name(), pt, want[nproc-1])
				}
			}
		}
	}
	st := ev.Stats()
	if st.MVAHits == 0 {
		t.Errorf("repeat passes produced no cache hits: %+v", st)
	}
	if st.MVASolves == 0 {
		t.Errorf("no solves recorded: %+v", st)
	}
}

// TestParamsUsedDeclarationsSound validates each scheme's parameter
// declaration against the model itself. It finds the parameters a
// scheme ignores by probing core.CanonicalParams, the rule the cache
// keys by, and checks that varying them leaves the computed demand
// bit-identical. If a scheme ever starts reading a parameter its
// declaration leaves out, this fails before the cache can serve wrong
// answers. Every registered scheme is covered, plus non-default knob
// settings.
func TestParamsUsedDeclarationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	costs := core.BusCosts()
	schemes := []core.Scheme{core.Hybrid{LockFrac: 0.5}, core.HybridUpdate{UpdateFrac: 0.25}}
	for _, info := range core.RegisteredSchemes() {
		schemes = append(schemes, info.Scheme)
	}
	for _, s := range schemes {
		base := core.MiddleParams()
		want, err := core.ComputeDemand(s, base, costs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		canon := core.CanonicalParams(s, base)
		for _, f := range core.Fields() {
			lo, hi := f.Low, f.High
			if lo > hi {
				lo, hi = hi, lo
			}
			// The probe moves f to a range end it is not at: f is
			// read iff the canonical form moves with it.
			probe := base
			if f.Get(&base) == lo {
				f.Set(&probe, hi)
			} else {
				f.Set(&probe, lo)
			}
			if core.CanonicalParams(s, probe) != canon {
				continue
			}
			for trial := 0; trial < 5; trial++ {
				p := base
				f.Set(&p, lo+rng.Float64()*(hi-lo))
				got, err := core.ComputeDemand(s, p, costs)
				if err != nil {
					t.Fatalf("%s: vary %s: %v", s.Name(), f.Name, err)
				}
				if got != want {
					t.Errorf("%s: demand depends on undeclared parameter %s", s.Name(), f.Name)
					break
				}
			}
		}
	}
}

// TestCanonicalCollapsesUnusedFields checks the cache actually merges
// workloads differing only in ignored fields: Base ignores apl, so two
// workloads differing only there must cost one curve solve.
func TestCanonicalCollapsesUnusedFields(t *testing.T) {
	ev := NewEvaluator()
	costs := core.BusCosts()
	p1 := core.MiddleParams()
	p2 := p1
	p2.APL = 50
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, p1, costs, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, p2, costs, 16); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.MVASolves != 1 || st.MVAHits != 1 || st.CurveEntries != 1 {
		t.Errorf("apl variation not collapsed for Base: %+v", st)
	}
}

// TestHybridConfigurationsNotShared checks differently configured Hybrid
// instances never share a cache entry (their Name is identical; only
// String carries the lock fraction).
func TestHybridConfigurationsNotShared(t *testing.T) {
	ev := NewEvaluator()
	costs := core.BusCosts()
	p := core.MiddleParams()
	a, err := ev.BusPointCtx(context.Background(), core.Hybrid{LockFrac: 0.1}, p, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.BusPointCtx(context.Background(), core.Hybrid{LockFrac: 0.9}, p, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("Hybrid lock fractions 0.1 and 0.9 returned identical points — cache key collision")
	}
	want, err := core.BusPower(core.Hybrid{LockFrac: 0.9}, p, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.Power != want {
		t.Errorf("cached Hybrid power %v != fresh %v", b.Power, want)
	}
}

// nearKnobSchemes are the knobbed schemes at knob values 0.003 apart:
// equal to two decimals, so their display labels collide.
var nearKnobSchemes = [][2]core.Scheme{
	{core.Hybrid{LockFrac: 0.301}, core.Hybrid{LockFrac: 0.304}},
	{core.HybridUpdate{UpdateFrac: 0.501}, core.HybridUpdate{UpdateFrac: 0.504}},
	{core.PriorityBus{Inner: core.Hybrid{LockFrac: 0.301}}, core.PriorityBus{Inner: core.Hybrid{LockFrac: 0.304}}},
}

// TestNearKnobValuesNotShared: knob values that agree to two decimals
// are still different schemes. Each must get its uncached answer, on
// the single-point path, the curve path, and through a batch group.
func TestNearKnobValuesNotShared(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	for _, pair := range nearKnobSchemes {
		ev := NewEvaluator()
		for _, s := range pair {
			want, err := core.EvaluateBus(s, p, costs, 16)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.BusPointCtx(context.Background(), s, p, costs, 16)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[15] {
				t.Errorf("%s: BusPoint %+v, uncached %+v", core.SchemeKey(s), got, want[15])
			}
			curve, err := ev.EvaluateBusCtx(context.Background(), s, p, costs, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if curve[7] != want[7] {
				t.Errorf("%s: EvaluateBus[7] %+v, uncached %+v", core.SchemeKey(s), curve[7], want[7])
			}
		}
		if groups := BatchGroups(2, func(i int) (core.Scheme, core.Params) { return pair[i], p }); len(groups) != 2 {
			t.Errorf("%s and %s batched into one group", core.SchemeKey(pair[0]), core.SchemeKey(pair[1]))
		}
		// Both schemes in one batch on one cache: two groups, each
		// answered off its own curve.
		var points []Point
		for _, n := range []int{16, 8} {
			points = append(points, Point{Scheme: pair[0], Params: p, NProc: n}, Point{Scheme: pair[1], Params: p, NProc: n})
		}
		for i, r := range (&Engine{Workers: 1, Cache: NewEvaluator()}).EvaluateBus(points, costs) {
			want, _ := core.EvaluateBus(r.Point.Scheme, p, costs, r.Point.NProc)
			if r.Err != nil || r.Bus != want[r.Point.NProc-1] {
				t.Errorf("%s: batch point %d %+v (%v), uncached %+v", core.SchemeKey(r.Point.Scheme), i, r.Bus, r.Err, want[r.Point.NProc-1])
			}
		}
	}
}

// TestPublishedCurvesExactLength: the cache holds no spare capacity —
// a cold solve, a single curve query, and a population-ascending batch
// group all publish curves with cap == len.
func TestPublishedCurvesExactLength(t *testing.T) {
	costs := core.BusCosts()
	ctx := context.Background()
	ev := NewEvaluator()
	check := func(what string, s core.Scheme, p core.Params, n int) {
		t.Helper()
		d, err := core.ComputeDemand(s, p, costs)
		if err != nil {
			t.Fatal(err)
		}
		key := curveKey(d)
		sh := &ev.curves[key.shard()]
		sh.mu.RLock()
		sl, ok := sh.entries[key]
		sh.mu.RUnlock()
		if !ok || len(sl.v) != n || cap(sl.v) != len(sl.v) {
			t.Errorf("%s: cached curve ok=%v len %d cap %d, want len == cap == %d", what, ok, len(sl.v), cap(sl.v), n)
		}
	}
	p := core.MiddleParams()
	if _, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 37, nil); err != nil {
		t.Fatal(err)
	}
	check("cold solve", core.Base{}, p, 37)

	if _, err := ev.CurveCtx(ctx, core.Dragon{}, p, costs, 300); err != nil {
		t.Fatal(err)
	}
	check("single curve", core.Dragon{}, p, 300)

	var points []Point
	for n := 1; n <= 40; n++ {
		points = append(points, Point{Scheme: core.NoCache{}, Params: p, NProc: n})
	}
	if err := FirstError((&Engine{Workers: 1, Cache: ev}).EvaluateBus(points, costs)); err != nil {
		t.Fatal(err)
	}
	check("ascending group", core.NoCache{}, p, 40)
}

// TestInvalidParamsErrorDespiteCache checks error parity: an invalid
// workload must error even when a canonically equal valid workload is
// already cached (Base ignores apl, so apl=-5 canonicalizes onto the
// cached middle workload).
func TestInvalidParamsErrorDespiteCache(t *testing.T) {
	ev := NewEvaluator()
	costs := core.BusCosts()
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, core.MiddleParams(), costs, 16); err != nil {
		t.Fatal(err)
	}
	bad := core.MiddleParams()
	bad.APL = -5
	_, cachedErr := ev.BusPointCtx(context.Background(), core.Base{}, bad, costs, 16)
	_, freshErr := core.ComputeDemand(core.Base{}, bad, costs)
	if (cachedErr == nil) != (freshErr == nil) {
		t.Errorf("error parity broken: cached err %v, fresh err %v", cachedErr, freshErr)
	}
}

// TestCostTablesNotConfused checks bus and network tables keep separate
// curves even though the lookups interleave, while two separately
// constructed but identical tables share one.
func TestCostTablesNotConfused(t *testing.T) {
	ev := NewEvaluator()
	p := core.MiddleParams()
	bus, err := ev.BusPointCtx(context.Background(), core.Base{}, p, core.BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	net, err := ev.BusPointCtx(context.Background(), core.Base{}, p, core.NetworkCosts(8), 16)
	if err != nil {
		t.Fatal(err)
	}
	if bus == net {
		t.Error("bus and network cost tables produced identical points — key collision")
	}
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, p, core.BusCosts(), 16); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.MVASolves != 2 {
		t.Errorf("want 2 MVA solves (bus + network), got %+v", st)
	}
	if st.MVAHits != 1 {
		t.Errorf("fresh-but-identical bus table missed the cache: %+v", st)
	}
}

// TestCurveResultsAreCallerOwned checks the aliasing contract: a caller
// that mutates returned points must not corrupt later cache hits, on
// either the miss-path return or the hit-path return.
func TestCurveResultsAreCallerOwned(t *testing.T) {
	ev := NewEvaluator()
	costs := core.BusCosts()
	p := core.MiddleParams()
	want, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]core.BusPoint(nil), want...)
	// Scribble over the miss-path return, then over a hit-path return.
	for pass := 0; pass < 2; pass++ {
		for i := range want {
			want[i].Wait = -1
			want[i].BusUtilization = 99
		}
		got, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != pristine[i] {
				t.Fatalf("pass %d: cached curve corrupted at %d: got %+v, want %+v",
					pass, i, got[i], pristine[i])
			}
		}
		want = got
	}
	if st := ev.Stats(); st.MVASolves != 1 {
		t.Errorf("returned points defeated the cache: %+v", st)
	}
}

// TestBusPointErrorNamesArgument pins the fixed error message: BusPoint
// takes nproc, not maxProcs.
func TestBusPointErrorNamesArgument(t *testing.T) {
	ev := NewEvaluator()
	_, err := ev.BusPointCtx(context.Background(), core.Base{}, core.MiddleParams(), core.BusCosts(), 0)
	if err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Errorf("want error naming nproc, got %v", err)
	}
}

// TestCurvePrefixReuse checks a shorter curve is served as a prefix of a
// longer one and extending a curve re-solves once.
func TestCurvePrefixReuse(t *testing.T) {
	ev := NewEvaluator()
	costs := core.BusCosts()
	p := core.MiddleParams()
	long, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	short, err := ev.EvaluateBusCtx(context.Background(), core.Base{}, p, costs, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix point %d differs", i)
		}
	}
	st := ev.Stats()
	if st.MVASolves != 1 {
		t.Errorf("want 1 MVA solve, got %+v", st)
	}
	if st.MVAHits != 1 {
		t.Errorf("short curve did not hit the long curve: %+v", st)
	}
}
