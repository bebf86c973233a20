package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"swcc/internal/core"
)

// allSchemes is the full scheme set the engine must handle: the four
// paper schemes plus the repository's extensions.
func allSchemes() []core.Scheme {
	return append(core.PaperSchemes(), core.Directory{}, core.Hybrid{LockFrac: 0.3})
}

// levelGrid is a Table 8-style grid: every scheme at every level and a
// few machine sizes.
func levelGrid(sizes ...int) []Point {
	var points []Point
	for _, s := range allSchemes() {
		for _, l := range core.Levels() {
			for _, n := range sizes {
				points = append(points, Point{Scheme: s, Params: core.ParamsAt(l), NProc: n})
			}
		}
	}
	return points
}

// TestParallelMatchesSequential is the determinism contract: the same
// grid evaluated sequentially-uncached, parallel-uncached, and
// parallel-cached must produce bit-identical results.
func TestParallelMatchesSequential(t *testing.T) {
	points := levelGrid(1, 4, 16, 64)
	costs := core.BusCosts()

	seq := (&Engine{Workers: 1}).EvaluateBus(points, costs)
	if err := FirstError(seq); err != nil {
		t.Fatal(err)
	}
	configs := map[string]*Engine{
		"parallel-uncached": {Workers: 8},
		"parallel-cached":   {Workers: 8, Cache: NewEvaluator()},
		"sequential-cached": {Workers: 1, Cache: NewEvaluator()},
	}
	for name, eng := range configs {
		got := eng.EvaluateBus(points, costs)
		if err := FirstError(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range got {
			if got[i].Bus != seq[i].Bus {
				t.Errorf("%s: point %d (%s n=%d): got %+v, want %+v",
					name, i, got[i].Point.Scheme.Name(), got[i].Point.NProc, got[i].Bus, seq[i].Bus)
			}
		}
	}
}

// TestNilEngineSequential checks the zero/nil engine runs sequential and
// uncached rather than panicking.
func TestNilEngineSequential(t *testing.T) {
	var e *Engine
	points := levelGrid(4)
	results := e.EvaluateBus(points, core.BusCosts())
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	want := (&Engine{Workers: 1}).EvaluateBus(points, core.BusCosts())
	for i := range results {
		if results[i].Bus != want[i].Bus {
			t.Fatalf("point %d differs", i)
		}
	}
}

// TestEvaluateBusErrorSlots checks a bad point errors in its own slot
// without disturbing its neighbors.
func TestEvaluateBusErrorSlots(t *testing.T) {
	bad := core.MiddleParams()
	bad.Shd = -1
	points := []Point{
		{Scheme: core.Base{}, Params: core.MiddleParams(), NProc: 4},
		{Scheme: core.Base{}, Params: bad, NProc: 4},
		{Scheme: core.Base{}, Params: core.MiddleParams(), NProc: 0},
		{Scheme: core.Dragon{}, Params: core.MiddleParams(), NProc: 8},
	}
	for _, eng := range []*Engine{{Workers: 1}, New(4)} {
		results := eng.EvaluateBus(points, core.BusCosts())
		if results[0].Err != nil || results[3].Err != nil {
			t.Fatalf("good points errored: %v, %v", results[0].Err, results[3].Err)
		}
		if results[1].Err == nil {
			t.Error("invalid shd did not error")
		}
		if results[2].Err == nil {
			t.Error("nproc 0 did not error")
		}
		if err := FirstError(results); err == nil || err != results[1].Err {
			t.Errorf("FirstError = %v, want the slot-1 error", err)
		}
	}
}

func TestEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		n := 100
		hits := make([]int32, n)
		err := EachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestEachReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom-3")
	for _, workers := range []int{1, 4} {
		var ran int32
		err := EachCtx(context.Background(), workers, 10, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return wantErr
			}
			if i == 7 {
				return fmt.Errorf("boom-7")
			}
			return nil
		})
		if err != wantErr {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
		if ran != 10 {
			t.Errorf("workers=%d: ran %d of 10 indices despite error", workers, ran)
		}
	}
}

func TestEachEmpty(t *testing.T) {
	if err := EachCtx(context.Background(), 4, 0, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := EachCtx(context.Background(), 4, -1, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
