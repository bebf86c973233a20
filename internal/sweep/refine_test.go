package sweep

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"swcc/internal/core"
)

// denseLattice reproduces the exact set of axis values Refine could ever
// visit at the given resolution: the coarse grid plus every recursive
// midpoint down to minStep, computed with the same float arithmetic as
// refine.go so the values are bit-identical.
func denseLattice(from, to float64, coarse int, minStep float64) []float64 {
	xs := make([]float64, 0, coarse)
	for i := 0; i < coarse; i++ {
		xs = append(xs, from+(to-from)*float64(i)/float64(coarse-1))
	}
	for {
		var mids []float64
		for i := 0; i+1 < len(xs); i++ {
			if xs[i+1]-xs[i] > minStep {
				mids = append(mids, (xs[i]+xs[i+1])/2)
			}
		}
		if len(mids) == 0 {
			return xs
		}
		xs = append(xs, mids...)
		sort.Float64s(xs)
	}
}

// TestRefineMatchesDenseGrid is the tentpole acceptance pin: an adaptive
// refine over apl (the paper's Figures 8-9 axis, where Software-Flush
// overtakes Dragon) must (a) reproduce the dense grid's values
// bit-identically at every point it evaluates, (b) locate exactly the
// boundaries a dense scan of the full lattice finds, and (c) do it with
// at least 10x fewer demand solves, measured by evaluator Stats on fresh
// caches for each side.
func TestRefineMatchesDenseGrid(t *testing.T) {
	const (
		from, to = 1.0, 64.0
		coarse   = 9
		procs    = 16
	)
	minStep := (to - from) / 512
	schemes := []core.Scheme{core.SoftwareFlush{}, core.Dragon{}}
	base := core.MiddleParams()
	costs := core.BusCosts()

	// Dense side: every lattice value for every scheme, fresh cache.
	lattice := denseLattice(from, to, coarse, minStep)
	denseEng := New(0)
	var pts []Point
	for _, x := range lattice {
		p, err := base.With("apl", x)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			pts = append(pts, Point{Scheme: s, Params: p, NProc: procs})
		}
	}
	denseRes := denseEng.EvaluateBus(pts, costs)
	if err := FirstError(denseRes); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		power []float64
		best  int
	}
	dense := map[float64]cell{}
	for i, x := range lattice {
		c := cell{power: make([]float64, len(schemes))}
		for j := range schemes {
			c.power[j] = denseRes[i*len(schemes)+j].Bus.Power
			if c.power[j] > c.power[c.best] {
				c.best = j
			}
		}
		dense[x] = c
	}
	var denseBounds []Boundary
	for i := 0; i+1 < len(lattice); i++ {
		lo, hi := dense[lattice[i]], dense[lattice[i+1]]
		if lo.best != hi.best {
			denseBounds = append(denseBounds, Boundary{
				Lo: lattice[i], Hi: lattice[i+1], LoBest: lo.best, HiBest: hi.best,
			})
		}
	}
	if len(denseBounds) == 0 {
		t.Fatal("dense grid found no crossover; the scenario no longer exercises refinement")
	}

	// Refine side: fresh cache again, so Stats isolate its solve count.
	refineEng := New(0)
	res, err := refineEng.Refine(context.Background(), RefineSpec{
		Schemes: schemes, Base: base, Axis: "apl",
		From: from, To: to, Procs: procs, Coarse: coarse, MinStep: minStep,
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) bit-identical values at every evaluated point.
	for _, pt := range res.Points {
		want, ok := dense[pt.X]
		if !ok {
			t.Fatalf("refine evaluated x=%v, which is not on the dense lattice", pt.X)
		}
		for j := range schemes {
			if pt.Power[j] != want.power[j] {
				t.Errorf("x=%v scheme %s: refine power %v != dense power %v",
					pt.X, schemes[j].Name(), pt.Power[j], want.power[j])
			}
		}
		if pt.Best != want.best {
			t.Errorf("x=%v: refine winner %d != dense winner %d", pt.X, pt.Best, want.best)
		}
	}

	// (b) identical boundaries, at the dense lattice's own resolution.
	if len(res.Boundaries) != len(denseBounds) {
		t.Fatalf("refine found %d boundaries, dense grid found %d: %+v vs %+v",
			len(res.Boundaries), len(denseBounds), res.Boundaries, denseBounds)
	}
	for i, b := range res.Boundaries {
		if b != denseBounds[i] {
			t.Errorf("boundary %d: refine %+v != dense %+v", i, b, denseBounds[i])
		}
	}

	// (c) >= 10x fewer solves, both by cell count and by the evaluator's
	// own MVA-solve counter (the costly part of an apl sweep: every
	// distinct apl is a fresh curve for Software-Flush).
	denseCells := len(lattice) * len(schemes)
	if res.Solves*10 > denseCells {
		t.Errorf("refine used %d cell solves; dense grid is %d (want >= 10x saving)", res.Solves, denseCells)
	}
	ds, rs := denseEng.Cache.Stats(), refineEng.Cache.Stats()
	if rs.MVASolves*10 > ds.MVASolves {
		t.Errorf("refine MVA solves = %d, dense = %d (want >= 10x fewer)", rs.MVASolves, ds.MVASolves)
	}
	if res.Waves < 2 {
		t.Errorf("Waves = %d, want >= 2 (the coarse grid alone cannot reach minStep resolution)", res.Waves)
	}
}

// TestRefineProcsAxis pins the Figure 4-style machine-size crossover the
// tutorial walks through: near the apl tie point, Software-Flush wins
// small machines and Dragon wins large ones, and the procs axis
// subdivides on integers only, down to adjacent values.
func TestRefineProcsAxis(t *testing.T) {
	base, err := core.MiddleParams().With("apl", 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0).Refine(context.Background(), RefineSpec{
		Schemes: []core.Scheme{core.SoftwareFlush{}, core.Dragon{}},
		Base:    base, Axis: AxisProcs, From: 1, To: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.X != float64(int(pt.X)) {
			t.Errorf("procs axis evaluated non-integer x=%v", pt.X)
		}
	}
	if len(res.Boundaries) != 1 {
		t.Fatalf("boundaries = %+v, want exactly one", res.Boundaries)
	}
	b := res.Boundaries[0]
	if b.Hi != b.Lo+1 {
		t.Errorf("procs boundary [%g, %g] not refined to adjacent integers", b.Lo, b.Hi)
	}
	if b != (Boundary{Lo: 7, Hi: 8, LoBest: 0, HiBest: 1}) {
		t.Errorf("boundary = %+v, want Software-Flush -> Dragon between 7 and 8", b)
	}
	if res.Solves >= 2*64 {
		t.Errorf("refine used %d cell solves, no better than the 128-cell dense grid", res.Solves)
	}
}

// TestRefineValidation covers the spec errors.
func TestRefineValidation(t *testing.T) {
	eng := New(0)
	base := core.MiddleParams()
	cases := []struct {
		name string
		spec RefineSpec
	}{
		{"one scheme", RefineSpec{Schemes: []core.Scheme{core.Base{}}, Base: base, Axis: AxisProcs, From: 1, To: 8}},
		{"empty range", RefineSpec{Schemes: []core.Scheme{core.Base{}, core.Dragon{}}, Base: base, Axis: AxisProcs, From: 8, To: 8}},
		{"bad axis", RefineSpec{Schemes: []core.Scheme{core.Base{}, core.Dragon{}}, Base: base, Axis: "nope", From: 1, To: 8}},
		{"fractional procs", RefineSpec{Schemes: []core.Scheme{core.Base{}, core.Dragon{}}, Base: base, Axis: AxisProcs, From: 1.5, To: 8}},
	}
	for _, tc := range cases {
		if _, err := eng.Refine(context.Background(), tc.spec); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Refine(ctx, RefineSpec{
		Schemes: []core.Scheme{core.SoftwareFlush{}, core.Dragon{}},
		Base:    base, Axis: AxisProcs, From: 1, To: 64,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled refine returned %v, want context.Canceled", err)
	}
}

// cancellingScheme delegates to a real scheme but fires cancel on the
// k-th Frequencies call, simulating a SIGINT landing mid-grid. Its
// distinct name keeps it out of the built-in canonicalization tables, so
// every distinct workload is a distinct curve.
type cancellingScheme struct {
	inner  core.Scheme
	calls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (s cancellingScheme) Name() string { return "cancelling-" + s.inner.Name() }

func (s cancellingScheme) Frequencies(p core.Params) (core.OpFreqs, error) {
	if s.calls.Add(1) == s.at {
		s.cancel()
	}
	return s.inner.Frequencies(p)
}

// TestEvaluateBusCtxCancelSkipsSolves pins the satellite fix: a grid
// interrupted mid-solve must do strictly fewer MVA solves than the
// full grid, and the unsolved cells must report the context error.
// Before EvaluateBus threaded the caller's context, the whole grid
// always solved to completion (the old hardwired context.Background()).
func TestEvaluateBusCtxCancelSkipsSolves(t *testing.T) {
	const n = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	scheme := cancellingScheme{inner: core.SoftwareFlush{}, calls: &calls, at: 2, cancel: cancel}

	ev := NewEvaluator()
	eng := &Engine{Workers: 1, Cache: ev}
	base := core.MiddleParams()
	points := make([]Point, n)
	for i := range points {
		p, err := base.With("apl", float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		points[i] = Point{Scheme: scheme, Params: p, NProc: 8}
	}
	results := eng.EvaluateBusCtx(ctx, points, core.BusCosts())

	solved, cancelled := 0, 0
	for i, r := range results {
		if r.Point.Scheme == nil {
			t.Fatalf("result %d has no Point stamped", i)
		}
		switch {
		case r.Err == nil:
			solved++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("result %d: unexpected error %v", i, r.Err)
		}
	}
	st := ev.Stats()
	if st.MVASolves >= n {
		t.Errorf("MVASolves = %d, want strictly fewer than the %d-cell grid", st.MVASolves, n)
	}
	if st.MVASolves < 1 || solved < 1 {
		t.Errorf("nothing solved before the cancel (solves=%d, ok results=%d); the test lost its race", st.MVASolves, solved)
	}
	if cancelled < n/2 {
		t.Errorf("only %d of %d cells report context.Canceled", cancelled, n)
	}
}
