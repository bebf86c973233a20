package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"swcc/internal/core"
)

func allSchemesConc() []core.Scheme {
	return []core.Scheme{
		core.Base{}, core.NoCache{}, core.SoftwareFlush{}, core.Dragon{},
		core.Hybrid{LockFrac: 0.3}, core.Directory{},
	}
}

// shdParams returns a valid workload varying only shd, giving a cheap
// supply of distinct cache keys.
func shdParams(t testing.TB, i, n int) core.Params {
	t.Helper()
	shd := 0.02 + 0.9*float64(i)/float64(n)
	p, err := core.MiddleParams().With("shd", shd)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluatorConcurrentHammer drives one shared evaluator from many
// goroutines over a key mix engineered to collide (every goroutine
// rotates through the same schemes and workloads, so hits, misses, and
// singleflight waits all interleave) and checks every answer is
// bit-identical to a fresh solve. Run under -race this is the sharded
// cache's memory-safety gate.
func TestEvaluatorConcurrentHammer(t *testing.T) {
	for _, cap := range []int{0, 24} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			ev := NewEvaluatorCap(cap)
			costs := core.BusCosts()
			schemes := allSchemesConc()
			const keys = 12
			const workers = 16
			const rounds = 60

			type ref struct {
				p    core.Params
				s    core.Scheme
				want core.BusPoint
			}
			refs := make([]ref, 0, keys*len(schemes))
			for i := 0; i < keys; i++ {
				p := shdParams(t, i, keys)
				for _, s := range schemes {
					pts, err := core.EvaluateBus(s, p, costs, 24)
					if err != nil {
						t.Fatal(err)
					}
					refs = append(refs, ref{p: p, s: s, want: pts[23]})
				}
			}

			var wg sync.WaitGroup
			errc := make(chan string, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						rf := refs[(w*7+r)%len(refs)]
						got, err := ev.BusPointCtx(context.Background(), rf.s, rf.p, costs, 24)
						if err != nil {
							errc <- err.Error()
							return
						}
						if got != rf.want {
							errc <- fmt.Sprintf("%s: point diverged under concurrency", rf.s.Name())
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for e := range errc {
				t.Error(e)
			}
			st := ev.Stats()
			if st.MVASolves == 0 {
				t.Errorf("no solves recorded: %+v", st)
			}
			if cap > 0 {
				bound := ev.Capacity()
				if st.CurveEntries > bound {
					t.Errorf("capped evaluator exceeded bound %d: %+v", bound, st)
				}
			}
		})
	}
}

// TestEvaluatorCapBoundsEntries feeds a capped evaluator far more
// distinct workloads than its capacity and checks the caches stay within
// the (rounded) bound, evictions are counted, and an evicted key
// re-solves to a bit-identical answer — eviction may cost time, never
// correctness.
func TestEvaluatorCapBoundsEntries(t *testing.T) {
	const capacity = 64
	ev := NewEvaluatorCap(capacity)
	costs := core.BusCosts()
	const distinct = 4 * capacity
	for i := 0; i < distinct; i++ {
		if _, err := ev.BusPointCtx(context.Background(), core.Dragon{}, shdParams(t, i, distinct), costs, 8); err != nil {
			t.Fatal(err)
		}
	}
	st := ev.Stats()
	bound := ev.Capacity()
	if bound < capacity {
		t.Fatalf("Capacity() = %d < configured %d", bound, capacity)
	}
	if st.CurveEntries > bound {
		t.Errorf("curve entries %d exceed bound %d", st.CurveEntries, bound)
	}
	if st.CurveEvictions == 0 {
		t.Errorf("feeding %d distinct keys into capacity %d evicted nothing: %+v",
			distinct, capacity, st)
	}
	// The first key is long evicted; re-querying must re-solve, not
	// corrupt.
	p := shdParams(t, 0, distinct)
	got, err := ev.BusPointCtx(context.Background(), core.Dragon{}, p, costs, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EvaluateBus(core.Dragon{}, p, costs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[7] {
		t.Errorf("evicted key re-solved to %+v, want %+v", got, want[7])
	}
}

// TestEvaluatorCapRetainsHotKey checks the CLOCK policy actually uses
// its reference bits: a key re-read between every batch of cold inserts
// must survive sweeps that evict its cold neighbors. The capacity gives
// each shard several slots — with one slot per shard every insert must
// evict the only resident, reference bit or not.
func TestEvaluatorCapRetainsHotKey(t *testing.T) {
	const capacity = 4 * numShards
	ev := NewEvaluatorCap(capacity)
	costs := core.BusCosts()
	hot := core.MiddleParams()
	if _, err := ev.BusPointCtx(context.Background(), core.Base{}, hot, costs, 8); err != nil {
		t.Fatal(err)
	}
	const cold = 8 * capacity
	for i := 0; i < cold; i++ {
		if _, err := ev.BusPointCtx(context.Background(), core.Dragon{}, shdParams(t, i, cold), costs, 8); err != nil {
			t.Fatal(err)
		}
		// Touch the hot key so its reference bit is set whenever the
		// hand sweeps past.
		if _, err := ev.BusPointCtx(context.Background(), core.Base{}, hot, costs, 8); err != nil {
			t.Fatal(err)
		}
	}
	st := ev.Stats()
	if st.MVASolves != uint64(cold)+1 {
		t.Errorf("hot key was evicted and re-solved: %d MVA solves, want %d",
			st.MVASolves, cold+1)
	}
}

// TestClockEvictsOldestWithoutHits pins the CLOCK victim order: with no
// reference bits set, the hand evicts in insertion order, so the resident
// set is exactly the newest cap keys.
func TestClockEvictsOldestWithoutHits(t *testing.T) {
	const capacity, inserts = 4, 10
	var sh striped
	sh.init()
	key := func(k int) mvaKey { return mvaKey{think: float64(k)} }
	for k := 0; k < inserts; k++ {
		if evicted := sh.put(key(k), nil, capacity); evicted != (k >= capacity) {
			t.Errorf("insert %d: evicted = %v", k, evicted)
		}
	}
	if len(sh.entries) != capacity {
		t.Fatalf("%d resident entries, want %d", len(sh.entries), capacity)
	}
	for k := inserts - capacity; k < inserts; k++ {
		if _, ok := sh.entries[key(k)]; !ok {
			t.Errorf("newest key %d evicted; resident %v", k, sh.ring)
		}
	}
}
