package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swcc/internal/core"
	"swcc/internal/queueing"
)

// benchGrid is a Table 8-scale sensitivity grid made heavy enough to
// measure: every (parameter, scheme, low/high) cell at 256 processors,
// the paper's large-machine regime.
func benchGrid() []Point {
	mid := core.MiddleParams()
	var points []Point
	for _, f := range core.Fields() {
		for _, s := range core.PaperSchemes() {
			for _, l := range []core.Level{core.Low, core.High} {
				p, err := mid.WithLevel(f.Name, l)
				if err != nil {
					panic(err)
				}
				points = append(points, Point{Scheme: s, Params: p, NProc: 256})
			}
		}
	}
	return points
}

// sequentialBaseline times one sequential uncached pass over the grid,
// the reference the speedup metric compares against.
func sequentialBaseline(points []Point, costs *core.CostTable) time.Duration {
	eng := &Engine{Workers: 1}
	start := time.Now()
	if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
		panic(err)
	}
	return time.Since(start)
}

func benchmarkSweep(b *testing.B, mkEngine func() *Engine) {
	points := benchGrid()
	costs := core.BusCosts()
	ref := sequentialBaseline(points, costs)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		eng := mkEngine()
		if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	perIter := elapsed / time.Duration(b.N)
	if perIter > 0 {
		// speedup vs one sequential uncached pass over the same grid;
		// > 1 means the configuration beats the pre-sweep code path.
		b.ReportMetric(float64(ref)/float64(perIter), "speedup")
	}
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkSweepSequentialUncached is the pre-engine baseline (speedup
// metric should sit near 1.0).
func BenchmarkSweepSequentialUncached(b *testing.B) {
	benchmarkSweep(b, func() *Engine { return &Engine{Workers: 1} })
}

// BenchmarkSweepParallelUncached isolates the worker-pool gain; the
// speedup metric approaches the core count on a multi-core runner.
func BenchmarkSweepParallelUncached(b *testing.B) {
	benchmarkSweep(b, func() *Engine { return &Engine{Workers: 0} })
}

// BenchmarkSweepParallelCached is the shipped configuration: worker pool
// plus a fresh memo cache per grid evaluation.
func BenchmarkSweepParallelCached(b *testing.B) {
	benchmarkSweep(b, func() *Engine { return New(0) })
}

// BenchmarkSweepWarmCache measures the steady state the experiments
// registry sees: the cache already holds the whole grid, so every point
// is two map hits.
func BenchmarkSweepWarmCache(b *testing.B) {
	points := benchGrid()
	costs := core.BusCosts()
	ref := sequentialBaseline(points, costs)
	eng := New(0)
	if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	perIter := elapsed / time.Duration(b.N)
	if perIter > 0 {
		b.ReportMetric(float64(ref)/float64(perIter), "speedup")
	}
}

// BenchmarkEvaluatorBusPoint measures the single-point query path the
// bisections hit (cold cache per iteration batch is irrelevant here —
// steady-state hits dominate real usage).
func BenchmarkEvaluatorBusPoint(b *testing.B) {
	ev := NewEvaluator()
	p := core.MiddleParams()
	costs := core.BusCosts()
	if _, err := ev.BusPointCtx(context.Background(), core.SoftwareFlush{}, p, costs, 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.BusPointCtx(context.Background(), core.SoftwareFlush{}, p, costs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// busPointer abstracts the sharded evaluator and the single-mutex
// baseline so BenchmarkEvaluatorContention drives both identically.
type busPointer interface {
	BusPointCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (core.BusPoint, error)
}

// mutexEvaluator is the PR 1 evaluator design — every cache behind one
// sync.Mutex — kept as the contention baseline the sharded design is
// measured against. Results are identical; only the locking differs.
type mutexEvaluator struct {
	mu      sync.Mutex
	demands map[demandKey]core.Demand
	curves  map[mvaKey][]queueing.SingleServerResult
	tables  map[*core.CostTable]string
}

func newMutexEvaluator() *mutexEvaluator {
	return &mutexEvaluator{
		demands: map[demandKey]core.Demand{},
		curves:  map[mvaKey][]queueing.SingleServerResult{},
		tables:  map[*core.CostTable]string{},
	}
}

func (ev *mutexEvaluator) BusPointCtx(_ context.Context, s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (core.BusPoint, error) {
	ev.mu.Lock()
	fp, ok := ev.tables[costs]
	if !ok {
		fp = costs.Name
		for _, op := range core.Ops() {
			if costs.Defines(op) {
				c := costs.Cost(op)
				fp += fmt.Sprintf("|%d:%x:%x", int(op), c.CPU, c.Interconnect)
			}
		}
		ev.tables[costs] = fp
	}
	key := demandKey{core.KeyOf(s, p), fp}
	d, ok := ev.demands[key]
	ev.mu.Unlock()
	if !ok {
		var err error
		if d, err = core.ComputeDemand(s, p, costs); err != nil {
			return core.BusPoint{}, err
		}
		ev.mu.Lock()
		ev.demands[key] = d
		ev.mu.Unlock()
	}
	ck := mvaKey{d.Think(), d.Interconnect, d.Priority}
	ev.mu.Lock()
	c, ok := ev.curves[ck]
	if ok && len(c) >= nproc {
		out := append([]queueing.SingleServerResult(nil), c[:nproc]...)
		ev.mu.Unlock()
		return core.BusPointFromMVA(d, out[nproc-1]), nil
	}
	ev.mu.Unlock()
	c, err := queueing.SingleServerMVA(d.Think(), d.Interconnect, nproc)
	if err != nil {
		return core.BusPoint{}, err
	}
	ev.mu.Lock()
	if prev, ok := ev.curves[ck]; !ok || len(prev) < len(c) {
		ev.curves[ck] = append([]queueing.SingleServerResult(nil), c...)
	}
	ev.mu.Unlock()
	return core.BusPointFromMVA(d, c[nproc-1]), nil
}

// contentionKeys is the hit-heavy mix: a few dozen workloads per scheme,
// all warmed before the timer starts, so the measured path is pure cache
// traffic — the regime where the single lock was the bus everyone queued
// on.
type contentionKey struct {
	s core.Scheme
	p core.Params
}

func contentionKeys(b *testing.B) []contentionKey {
	schemes := []core.Scheme{core.Base{}, core.Dragon{}, core.SoftwareFlush{}, core.NoCache{}}
	var keys []contentionKey
	for i := 0; i < 16; i++ {
		p, err := core.MiddleParams().With("shd", 0.05+0.9*float64(i)/16)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range schemes {
			keys = append(keys, contentionKey{s: s, p: p})
		}
	}
	return keys
}

// BenchmarkEvaluatorContention hammers one shared evaluator from
// GOMAXPROCS goroutines on the hit-heavy mix (run with -cpu 1,4,8 to see
// the scaling curve). "sharded" is the shipped design — read-locked
// striped hits, atomic counters; "mutex" is the single-lock baseline it
// replaced. The acceptance criterion is sharded >= 2x mutex throughput
// at -cpu 8.
func BenchmarkEvaluatorContention(b *testing.B) {
	impls := []struct {
		name string
		mk   func() busPointer
	}{
		{"sharded", func() busPointer { return NewEvaluator() }},
		{"mutex", func() busPointer { return newMutexEvaluator() }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			keys := contentionKeys(b)
			costs := core.BusCosts()
			ev := impl.mk()
			for _, k := range keys {
				if _, err := ev.BusPointCtx(context.Background(), k.s, k.p, costs, 64); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 17 // stagger goroutines across the key space
				for pb.Next() {
					k := keys[i%len(keys)]
					i++
					if _, err := ev.BusPointCtx(context.Background(), k.s, k.p, costs, 64); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkEvaluatorContentionMixed is the same shared-evaluator hammer
// with a cold miss every 8th query (drawn from a large rotating pool),
// so singleflight and insert paths stay in the profile alongside hits.
func BenchmarkEvaluatorContentionMixed(b *testing.B) {
	impls := []struct {
		name string
		mk   func() busPointer
	}{
		{"sharded", func() busPointer { return NewEvaluator() }},
		{"mutex", func() busPointer { return newMutexEvaluator() }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			keys := contentionKeys(b)
			const coldPool = 1 << 14
			costs := core.BusCosts()
			ev := impl.mk()
			for _, k := range keys {
				if _, err := ev.BusPointCtx(context.Background(), k.s, k.p, costs, 64); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			var cold atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 17
				for pb.Next() {
					var k contentionKey
					if i%8 == 0 {
						n := cold.Add(1) % coldPool
						p, err := core.MiddleParams().With("oclean", 0.01+0.98*float64(n)/coldPool)
						if err != nil {
							b.Error(err)
							return
						}
						k = contentionKey{s: core.Dragon{}, p: p}
					} else {
						k = keys[i%len(keys)]
					}
					i++
					if _, err := ev.BusPointCtx(context.Background(), k.s, k.p, costs, 64); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
