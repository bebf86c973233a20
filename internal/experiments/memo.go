package experiments

import (
	"context"
	"sync"

	"swcc/internal/measure"
	"swcc/internal/sim"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// warmupFrac is the leading fraction of every trace the experiments
// spend warming the caches before counting.
const warmupFrac = 0.5

// runMemo shares trace-driven results among the experiments of one
// RunCtx or RunAllCtx call, so each distinct measurement or simulation
// runs at most once per call however many experiments ask for it:
// fig1, fig2, blocksize, table7 and scenarios all measure the same pops
// trace, for instance. A memo lives for one call, keys on the exact
// generator and simulator configurations, and holds results only: the
// traces stay with the experiments that generate them. Identical
// configurations replay identical traces deterministically, so a
// shared result is bit-identical to a fresh one.
//
// The memo sits here rather than inside sim.Run so that sim.Run always
// simulates: its throughput stays measurable, and no state outlives the
// call.
type runMemo struct {
	mu       sync.Mutex
	extracts map[extractKey]*memoEntry[*measure.Measurement]
	runs     map[simKey]*memoEntry[*sim.Result]
}

// extractKey names a measure.Extract of a generated trace.
type extractKey struct {
	gen   tracegen.Config
	cache sim.CacheConfig
}

// simKey names a sim.Run of the trace generated from gen on a
// cfg.NCPU-processor machine, warmed on the first warmupFrac of the
// records of its cfg.NCPU processors (cfg.WarmupRefs is zero in the
// key).
type simKey struct {
	gen tracegen.Config
	cfg sim.Config
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// testHookComputed, when set by a test, is called with the key of every
// result the memo computes rather than shares.
var testHookComputed func(key any)

type memoCtxKey struct{}

func newRunMemo() *runMemo {
	return &runMemo{
		extracts: map[extractKey]*memoEntry[*measure.Measurement]{},
		runs:     map[simKey]*memoEntry[*sim.Result]{},
	}
}

// withMemo returns ctx carrying a fresh memo for one call.
func withMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, newRunMemo())
}

// memoFrom returns the call's memo, or a fresh one scoped to a single
// experiment started without RunCtx or RunAllCtx.
func memoFrom(ctx context.Context) *runMemo {
	if m, ok := ctx.Value(memoCtxKey{}).(*runMemo); ok {
		return m
	}
	return newRunMemo()
}

// lookup returns k's result, computing it on the first request; later
// requests, concurrent ones included, wait for and share that result.
func lookup[K comparable, T any](mu *sync.Mutex, entries map[K]*memoEntry[T], k K, compute func() (T, error)) (T, error) {
	mu.Lock()
	e, ok := entries[k]
	if !ok {
		e = &memoEntry[T]{}
		entries[k] = e
	}
	mu.Unlock()
	e.once.Do(func() {
		if testHookComputed != nil {
			testHookComputed(k)
		}
		e.val, e.err = compute()
	})
	return e.val, e.err
}

// traceSource is a generator configuration and its trace, generated
// and prepared (validated and linked, sim.Prepare) on first use, so an
// experiment whose results are all shared never generates it. Every
// simulation and measurement of the trace runs from the one prepared
// copy, and the link lives exactly as long as the trace: with the
// source, not with the call's memo.
type traceSource struct {
	gen     tracegen.Config
	prepare func() (*sim.Prepared, error)
}

// testHookPrepared, when set by a test, is called with every trace a
// source prepares.
var testHookPrepared func(gen tracegen.Config, t *trace.Trace)

func newTraceSource(gen tracegen.Config) traceSource {
	return traceSource{gen, sync.OnceValues(func() (*sim.Prepared, error) {
		t, err := tracegen.Generate(gen)
		if err != nil {
			return nil, err
		}
		if testHookPrepared != nil {
			testHookPrepared(gen, t)
		}
		return sim.Prepare(t)
	})}
}

// extract is measure.Extract of src's trace under the given cache.
func (m *runMemo) extract(src traceSource, cache sim.CacheConfig) (*measure.Measurement, error) {
	return lookup(&m.mu, m.extracts, extractKey{src.gen, cache}, func() (*measure.Measurement, error) {
		p, err := src.prepare()
		if err != nil {
			return nil, err
		}
		return measure.ExtractPrepared(p, p.Trace().NCPU, cache, warmupFrac)
	})
}

// simulate is sim.Run of src's trace on a cfg.NCPU-processor machine,
// which runs the trace's first cfg.NCPU processors in place, warmed on
// the first warmupFrac of their records.
func (m *runMemo) simulate(src traceSource, cfg sim.Config) (*sim.Result, error) {
	return lookup(&m.mu, m.runs, simKey{src.gen, cfg}, func() (*sim.Result, error) {
		p, err := src.prepare()
		if err != nil {
			return nil, err
		}
		run := cfg
		run.WarmupRefs = int(float64(p.Records(cfg.NCPU)) * warmupFrac)
		return p.Run(run)
	})
}
