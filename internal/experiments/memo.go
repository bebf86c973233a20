package experiments

import (
	"context"
	"errors"
	"sync"

	"swcc/internal/measure"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// warmupFrac is the leading fraction of every trace the experiments
// spend warming the caches before counting.
const warmupFrac = 0.5

// runMemo shares trace-driven results among the experiments of one
// RunCtx or RunAllCtx call, so each distinct stream pass or simulation
// runs at most once per call however many experiments ask for it:
// fig1, fig2, blocksize, table7 and scenarios all measure the same pops
// trace, for instance. A memo lives for one call, keys on the exact
// generator and simulator configurations, and holds results plus at
// most one trace: the one its current source prepared (see source).
// Identical configurations replay identical traces deterministically,
// so a shared result is bit-identical to a fresh one.
//
// The memo sits here rather than inside sim.Run so that sim.Run always
// simulates: its throughput stays measurable, and no state outlives the
// call.
type runMemo struct {
	mu      sync.Mutex
	streams map[streamKey]*memoEntry[*measure.Measurement]
	runs    map[simKey]*memoEntry[*sim.Result]
	// src is the source handed out last; its trace is the only one
	// the memo keeps.
	src *traceSource
}

// streamKey names a measure.Stream of a generated trace's whole
// machine; the pass reads the cache's block size and nothing else of
// it, so every cache size of one block size shares it.
type streamKey struct {
	gen       tracegen.Config
	blockSize int
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
		streams: map[streamKey]*memoEntry[*measure.Measurement]{},
		runs:    map[simKey]*memoEntry[*sim.Result]{},
	}
}

// withMemo returns ctx carrying a fresh memo for one call, and the
// memo, which the call closes when it is done.
func withMemo(ctx context.Context) (context.Context, *runMemo) {
	m := newRunMemo()
	return context.WithValue(ctx, memoCtxKey{}, m), m
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
// and prepared (validated and threaded, sim.Prepare) on first use, so an
// experiment whose results are all shared never generates it. Every
// simulation and measurement of the trace runs from the one prepared
// copy until the memo that handed the source out releases it.
type traceSource struct {
	gen tracegen.Config

	mu       sync.Mutex
	released bool
	prepared *sim.Prepared
	err      error
}

// errReleased reports a source used after its memo moved on to
// another configuration or its call ended.
var errReleased = errors.New("experiments: trace source used after release")

// testHookPrepared and testHookReleased, when set by a test, are called
// with every trace a source prepares and with every prepared trace a
// memo releases.
var testHookPrepared, testHookReleased func(gen tracegen.Config, t *trace.Trace)

// prepare returns the source's prepared trace, generating and
// preparing it on the first call; concurrent callers wait for it.
func (s *traceSource) prepare() (*sim.Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return nil, errReleased
	}
	if s.prepared == nil && s.err == nil {
		t, err := tracegen.Generate(s.gen)
		if err != nil {
			s.err = err
			return nil, err
		}
		if testHookPrepared != nil {
			testHookPrepared(s.gen, t)
		}
		s.prepared, s.err = sim.Prepare(t)
	}
	return s.prepared, s.err
}

// release drops the source's trace; later prepares fail.
func (s *traceSource) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prepared != nil && testHookReleased != nil {
		testHookReleased(s.gen, s.prepared.Trace())
	}
	s.prepared, s.released = nil, true
}

// source hands out gen's trace source. Consecutive requests for one
// configuration share one source, so its trace is generated and
// prepared once for all of them; a request for another configuration
// releases the current source first, so the memo never holds two
// traces. The experiments that read traces take turns (traceLane), so
// no reader still holds a released source.
func (m *runMemo) source(gen tracegen.Config) *traceSource {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.src == nil || m.src.gen != gen {
		if m.src != nil {
			m.src.release()
		}
		m.src = &traceSource{gen: gen}
	}
	return m.src
}

// close releases the current source at the end of the memo's call.
func (m *runMemo) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.src != nil {
		m.src.release()
		m.src = nil
	}
}

// stream is measure.Stream of src's trace, whole machine, keyed on
// the cache's block size.
func (m *runMemo) stream(src *traceSource, blockSize int) (*measure.Measurement, error) {
	return lookup(&m.mu, m.streams, streamKey{src.gen, blockSize}, func() (*measure.Measurement, error) {
		p, err := src.prepare()
		if err != nil {
			return nil, err
		}
		return measure.Stream(p.Trace(), src.gen.NCPU, blockSize)
	})
}

// shadowConfigs are the Base and Dragon full-machine simulations a
// measurement of src's trace under cache derives its parameters from.
func shadowConfigs(src *traceSource, cache sim.CacheConfig) [2]sim.Config {
	return [2]sim.Config{
		{NCPU: src.gen.NCPU, Cache: cache, Protocol: sim.ProtoBase},
		{NCPU: src.gen.NCPU, Cache: cache, Protocol: sim.ProtoDragon},
	}
}

// extract is measure.Extract of src's trace under the given cache: the
// stream pass and the Base and Dragon shadows run concurrently, the
// shadows as the memo's full-machine simulations, and the measurement
// is derived from them (measure.WithShadows). A caller that ran those
// three already pays for the derivation only.
func (m *runMemo) extract(ctx context.Context, src *traceSource, cache sim.CacheConfig) (*measure.Measurement, error) {
	var stream *measure.Measurement
	var shadows [2]*sim.Result
	cfgs := shadowConfigs(src, cache)
	if err := sweep.EachCtx(ctx, 0, 3, func(i int) (err error) {
		if i == 0 {
			stream, err = m.stream(src, cache.BlockSize)
		} else {
			shadows[i-1], err = m.simulate(src, cfgs[i-1])
		}
		return err
	}); err != nil {
		return nil, err
	}
	return stream.WithShadows(shadows[0], shadows[1])
}

// simulate is sim.Run of src's trace on a cfg.NCPU-processor machine,
// which runs the trace's first cfg.NCPU processors in place, warmed on
// the first warmupFrac of their records.
func (m *runMemo) simulate(src *traceSource, cfg sim.Config) (*sim.Result, error) {
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
