package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"swcc/internal/core"
	"swcc/internal/obs"
)

// Stage names the Evaluator reports through an Observer. Together with
// the serving layer's validate stage they decompose one request's wall
// time the way the paper's Tables 1–6 decompose a scheme's cycle cost:
// per component, not just in aggregate.
const (
	// StageCacheLookup is the time to decide hit-or-miss on the fast
	// (read-locked) path, including copying the value out on a hit.
	StageCacheLookup = "cache_lookup"
	// StageDedupWait is the time a deduplicated miss spent parked on
	// another goroutine's in-flight solve.
	StageDedupWait = "singleflight_wait"
	// StageSolve is the time of a real cold MVA solve. Demand is not a
	// stage: timing it would cost a third of its arithmetic.
	StageSolve = "solve"
)

// Cache event names the Evaluator reports through an Observer. The
// cache label is "mva", matching the /metrics label value.
const (
	// EventHit is a query answered from the memo.
	EventHit = "hit"
	// EventMiss is a query that led a cold solve.
	EventMiss = "miss"
	// EventDedupJoin is a miss that joined another goroutine's in-flight
	// solve instead of re-solving.
	EventDedupJoin = "dedup_join"
	// EventEvict is an entry dropped by the bounded-capacity CLOCK
	// policy to make room.
	EventEvict = "evict"
)

// Observer receives the evaluator's stage timings and cache events.
// Implementations must be safe for concurrent use; calls happen on the
// query's goroutine with the query's context, so an observer can read
// the trace ID (obs.TraceID) to correlate events with a request. The
// evaluator never blocks correctness on an observer — it is telemetry
// only.
type Observer interface {
	// StageObserved reports that one pipeline stage took the given wall
	// time in seconds. Stage is one of the Stage* constants.
	StageObserved(ctx context.Context, stage string, seconds float64)
	// CacheEvent reports a discrete cache outcome. Cache is "mva";
	// event is one of the Event* constants.
	CacheEvent(ctx context.Context, cache, event string)
}

// Stats counts the evaluator's curve-cache traffic. A "solve" is one
// real MVA recursion; hits served from memory and misses deduplicated
// onto another goroutine's in-flight solve are counted separately.
// Demand (equations 1-2) is not cached: it is computed on every query.
type Stats struct {
	// DemandSolves, DemandHits, DemandDedups and DemandEvictions are
	// always 0: the evaluator keeps no demand cache. They remain only
	// for callers that still read them.
	DemandSolves, DemandHits, DemandDedups, DemandEvictions uint64
	// DemandEntries is always 0, for the same reason.
	DemandEntries int
	// MVASolves and MVAHits count MVA recursions and curve cache hits.
	// MVASolves is the sum of CurveExtends and CurveFullSolves: every
	// real recursion segment, however seeded.
	MVASolves, MVAHits uint64
	// CurveExtends counts MVA solves that resumed the recursion from a
	// cached shorter curve instead of restarting at population 1;
	// CurveFullSolves counts solves that started cold. Their ratio says
	// how much of the kernel's work the incremental path is saving.
	CurveExtends, CurveFullSolves uint64
	// MVADedups counts concurrent misses that waited for (and shared)
	// another goroutine's in-flight solve instead of re-solving — the
	// singleflight savings under parallel load.
	MVADedups uint64
	// CurveEvictions counts entries dropped by the bounded-capacity
	// CLOCK policy. Always zero on an unbounded evaluator.
	CurveEvictions uint64
	// CurveEntries is the current size of the curve cache — the number
	// a long-running server watches to know its cache is bounded by
	// distinct work (or by the configured capacity), not time.
	CurveEntries int
	// Shards is the number of lock stripes the cache is split across.
	Shards int
}

// mvaKey identifies a single-server MVA curve by its real inputs: think
// time, total service demand, and the high-priority share of service
// (zero for every FCFS curve). Queries whose demands are equal share
// one curve, whatever scheme or workload produced them.
type mvaKey struct {
	think, service, prio float64
}

// numShards is the lock-stripe count for the curve cache. Power of two
// so the shard index is a mask; 32 stripes keep the collision
// probability on a busy server low without bloating the per-evaluator
// footprint.
const numShards = 32

func (k mvaKey) shard() int {
	h := core.HashFloat(core.FNVOffset, k.think)
	h = core.HashFloat(h, k.service)
	h = core.HashFloat(h, k.prio)
	return int(h & (numShards - 1))
}

// --- lock-striped shard storage ---

// slot is one cached curve plus its CLOCK reference bit. The curve is
// the residence times R(1..len) — everything else a query returns is
// derived from R (core.BusPointFromResidence). The bit is set atomically
// on hits (under the shard's read lock, where plain writes would race)
// and swept under the write lock by eviction.
type slot struct {
	v   []float64
	ref atomic.Bool
}

// flight is one in-flight solve other goroutines can wait on instead of
// re-solving. n is the curve length being solved. v and err are written
// exactly once before done is closed and never mutated after, so
// waiters may read them without a lock.
type flight struct {
	n    int
	done chan struct{}
	v    []float64
	err  error
}

// striped is one lock stripe of the cache: the resident curves, CLOCK
// eviction metadata, and the singleflight calls for keys that hash
// here. Hits take only mu.RLock; misses, publishes, and evictions take
// mu.
type striped struct {
	mu       sync.RWMutex
	entries  map[mvaKey]*slot
	inflight map[mvaKey]*flight
	ring     []mvaKey // CLOCK ring; maintained only when the shard is capped
	hand     int
}

func (s *striped) init() {
	s.entries = map[mvaKey]*slot{}
	s.inflight = map[mvaKey]*flight{}
}

// put inserts v, evicting one CLOCK victim first when the shard is at
// cap (cap <= 0 = unbounded); the new key takes the victim's ring slot.
// Caller holds mu. Reports whether an eviction happened.
func (s *striped) put(key mvaKey, v []float64, cap int) bool {
	if sl, ok := s.entries[key]; ok {
		sl.v = v
		return false
	}
	evicted := cap > 0 && len(s.entries) >= cap
	if evicted {
		s.ring[s.evict()] = key
	} else if cap > 0 {
		s.ring = append(s.ring, key)
	}
	s.entries[key] = &slot{v: v}
	return evicted
}

// evict removes one entry by the CLOCK policy and returns its ring slot:
// the hand sweeps the ring clearing reference bits, and the first entry
// not referenced since its last sweep is the victim. The hand stops just
// past the victim, so with no hits entries leave in insertion order.
// Caller holds mu exclusively, so no reader can set a bit mid-sweep and
// the loop terminates within one revolution.
func (s *striped) evict() int {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		i := s.hand
		s.hand++
		if !s.entries[s.ring[i]].ref.CompareAndSwap(true, false) {
			delete(s.entries, s.ring[i])
			return i
		}
	}
}

// Evaluator memoizes MVA curves. It is safe for concurrent use and
// designed to scale with cores: the curve cache is split across
// lock-striped shards whose hits take only a read lock, bookkeeping is
// atomic, and concurrent misses on one key are deduplicated onto a
// single in-flight solve (singleflight) whose result every waiter
// shares. Demand is computed on every query: core.ComputeDemand costs
// about as much as a cache probe would. The zero value is not ready —
// construct with NewEvaluator or NewEvaluatorCap.
type Evaluator struct {
	curves   [numShards]striped
	shardCap int // per-shard entry cap; 0 = unbounded

	mvaSolves, mvaHits, mvaDedups atomic.Uint64
	curveExtends, curveFullSolves atomic.Uint64
	curveEvictions                atomic.Uint64

	// obsv, when non-nil, receives stage timings and cache events. Set
	// once via SetObserver before the evaluator sees traffic; nil (the
	// default) makes every instrumentation point a single branch.
	obsv Observer

	// waitHook, when non-nil, runs on the singleflight wait path after a
	// goroutine has committed to waiting on another's in-flight solve;
	// solveHook runs on the leader's path after it has registered its
	// flight, before it solves. Tests use them to hold a solve open
	// until every racer is parked.
	waitHook, solveHook func()
}

// SetObserver installs the evaluator's telemetry sink. It must be called
// before the evaluator is shared across goroutines (typically right
// after construction); passing nil disables observation.
func (ev *Evaluator) SetObserver(o Observer) { ev.obsv = o }

// NewEvaluator returns an empty, unbounded cache.
func NewEvaluator() *Evaluator { return NewEvaluatorCap(0) }

// NewEvaluatorCap returns an evaluator whose curve cache is bounded to
// roughly capacity entries, evicting by a per-shard CLOCK policy (hits
// set a reference bit; a sweeping hand evicts the first entry not
// referenced since its last pass). The capacity is split evenly across
// shards and rounded up, so the effective bound is Capacity().
// capacity <= 0 means unbounded.
func NewEvaluatorCap(capacity int) *Evaluator {
	ev := &Evaluator{}
	if capacity > 0 {
		ev.shardCap = (capacity + numShards - 1) / numShards
	}
	for i := range ev.curves {
		ev.curves[i].init()
	}
	return ev
}

// Capacity returns the effective curve-entry bound, or 0 when
// unbounded. It can exceed the capacity passed to NewEvaluatorCap by up
// to numShards-1 due to per-shard rounding.
func (ev *Evaluator) Capacity() int { return ev.shardCap * numShards }

// Stats returns a snapshot of the cache counters and current size. The
// counters are individually atomic, so a snapshot taken mid-traffic is
// approximate (e.g. hits may momentarily outpace solves).
func (ev *Evaluator) Stats() Stats {
	st := Stats{
		MVASolves:       ev.mvaSolves.Load(),
		MVAHits:         ev.mvaHits.Load(),
		CurveExtends:    ev.curveExtends.Load(),
		CurveFullSolves: ev.curveFullSolves.Load(),
		MVADedups:       ev.mvaDedups.Load(),
		CurveEvictions:  ev.curveEvictions.Load(),
		Shards:          numShards,
	}
	for _, n := range ev.ShardSizes() {
		st.CurveEntries += n
	}
	return st
}

// ShardSizes returns the per-shard entry counts of the curve cache, for
// export as per-shard gauges (a skewed distribution means a hot key
// range is hashing onto one stripe).
func (ev *Evaluator) ShardSizes() []int {
	sizes := make([]int, numShards)
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.RLock()
		sizes[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return sizes
}

// curveKey is the cache key of demand d's curve.
func curveKey(d core.Demand) mvaKey {
	return mvaKey{d.Think(), d.Interconnect, d.Priority}
}

// hit records a query answered from the cache.
func (ev *Evaluator) hit(ctx context.Context, sp obs.Span) {
	ev.mvaHits.Add(1)
	if ev.obsv != nil {
		ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
		ev.obsv.CacheEvent(ctx, "mva", EventHit)
	}
}

// curveShared returns demand d's residence curve for populations 1..n,
// reusing (a prefix of) a previously solved curve for the same key when
// long enough, and — the incremental kernel — resuming the recursion
// from a cached shorter curve when one exists instead of restarting at
// population 1. The FCFS recursion's only inter-population state is the
// queue length, a function of the last residence time, so both reuses
// are bit-identical to a cold solve of n.
//
// The returned slice has length >= n and is SHARED and immutable: it is
// a published cache entry, a completed flight value, or the solve about
// to become one. Callers must not mutate or retain it.
//
// Concurrent misses on one key join an in-flight solve when its target
// population covers theirs; a request for a longer curve than the one in
// flight becomes a new leader (superseding the old flight for future
// waiters) rather than waiting for a result it cannot use. Either way
// the published curve for a key only ever grows.
//
// Callers check ctx before calling (see demand).
func (ev *Evaluator) curveShared(ctx context.Context, d core.Demand, n int) ([]float64, error) {
	key := curveKey(d)
	sh := &ev.curves[key.shard()]

	var sp obs.Span
	if ev.obsv != nil {
		sp = obs.Start()
	}
	sh.mu.RLock()
	if sl, ok := sh.entries[key]; ok && len(sl.v) >= n {
		sl.ref.Store(true)
		out := sl.v // immutable once published; safe to read after unlock
		sh.mu.RUnlock()
		ev.hit(ctx, sp)
		return out, nil
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	if sl, ok := sh.entries[key]; ok && len(sl.v) >= n {
		sl.ref.Store(true)
		out := sl.v
		sh.mu.Unlock()
		ev.hit(ctx, sp)
		return out, nil
	}
	if fl, ok := sh.inflight[key]; ok && fl.n >= n {
		sh.mu.Unlock()
		if ev.waitHook != nil {
			ev.waitHook()
		}
		var wsp obs.Span
		if ev.obsv != nil {
			wsp = obs.Start()
		}
		select {
		case <-fl.done:
		case <-ctx.Done():
			// The waiter gives up its seat; the leader's solve continues
			// and still publishes for future (live) callers.
			return nil, ctx.Err()
		}
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageDedupWait, wsp.Seconds())
		}
		if fl.err != nil {
			return nil, fl.err
		}
		ev.mvaDedups.Add(1)
		if ev.obsv != nil {
			ev.obsv.CacheEvent(ctx, "mva", EventDedupJoin)
		}
		return fl.v, nil
	}
	// Miss. Capture whatever prefix of this key's curve is already
	// published: the recursion resumes from its last residence time
	// instead of restarting at population 1. The slice is immutable once
	// published, so holding the reference across the solve is safe even
	// if the entry is evicted or superseded meanwhile. Priority curves
	// cannot resume — their inter-population state is per-class and not
	// stored — so they always solve cold.
	var prefix []float64
	if sl, ok := sh.entries[key]; ok && d.Priority == 0 {
		sl.ref.Store(true)
		prefix = sl.v
	}
	fl := &flight{n: n, done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()
	if ev.solveHook != nil {
		ev.solveHook()
	}

	var ssp obs.Span
	if ev.obsv != nil {
		ssp = obs.Start()
	}
	fl.v, fl.err = core.BusResidence(d, prefix, n, nil)
	if ev.obsv != nil {
		ev.obsv.StageObserved(ctx, StageSolve, ssp.Seconds())
		ev.obsv.CacheEvent(ctx, "mva", EventMiss)
	}
	evicted := false
	sh.mu.Lock()
	if sh.inflight[key] == fl { // a longer-curve leader may have superseded us
		delete(sh.inflight, key)
	}
	if fl.err == nil {
		ev.mvaSolves.Add(1)
		if len(prefix) > 0 {
			ev.curveExtends.Add(1)
		} else {
			ev.curveFullSolves.Add(1)
		}
		if sl, ok := sh.entries[key]; !ok || len(sl.v) < len(fl.v) {
			// The flight's slice becomes the cache-owned immutable copy;
			// readers share it and never mutate.
			if sh.put(key, fl.v, ev.shardCap) {
				ev.curveEvictions.Add(1)
				evicted = true
			}
		}
	}
	sh.mu.Unlock()
	close(fl.done)
	if evicted && ev.obsv != nil {
		ev.obsv.CacheEvent(ctx, "mva", EventEvict)
	}
	if fl.err != nil {
		return nil, fl.err
	}
	return fl.v, nil
}

// demand is core.ComputeDemand behind a context check, so a done ctx
// fails fast with its error before any work — a timed-out or abandoned
// request stops consuming evaluator capacity even on a cache hit.
func demand(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable) (core.Demand, error) {
	if err := ctx.Err(); err != nil {
		return core.Demand{}, err
	}
	return core.ComputeDemand(s, p, costs)
}

// EvaluateBusCtx is a memoized core.EvaluateBus: identical results,
// served from the curve cache when possible. The demand is computed
// (and the workload validated) on every call; stage timings and cache
// events reported to the evaluator's Observer carry ctx (and hence its
// trace ID), and a done ctx fails fast with its error — before probing
// the cache, and while parked on another goroutine's in-flight solve.
// When cap(dst) >= maxProcs the returned slice reuses dst's backing
// array, so a warm evaluation allocates nothing; a nil or short dst
// allocates.
func (ev *Evaluator) EvaluateBusCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable, maxProcs int, dst []core.BusPoint) ([]core.BusPoint, error) {
	if maxProcs < 1 {
		return nil, fmt.Errorf("core: maxProcs %d < 1", maxProcs)
	}
	d, err := demand(ctx, s, p, costs)
	if err != nil {
		return nil, err
	}
	rs, err := ev.curveShared(ctx, d, maxProcs)
	if err != nil {
		return nil, err
	}
	return busPoints(d, rs, maxProcs, dst), nil
}

// busPoints expands the first maxProcs residence times of a curve into
// bus points, into dst when cap(dst) >= maxProcs.
func busPoints(d core.Demand, rs []float64, maxProcs int, dst []core.BusPoint) []core.BusPoint {
	var points []core.BusPoint
	if cap(dst) >= maxProcs {
		points = dst[:maxProcs]
	} else {
		points = make([]core.BusPoint, maxProcs)
	}
	for i := range points {
		points[i] = core.BusPointFromResidence(d, i+1, rs[i])
	}
	return points
}

// BusPointCtx returns the bus-model prediction at exactly nproc
// processors (ctx as in EvaluateBusCtx).
func (ev *Evaluator) BusPointCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (core.BusPoint, error) {
	if nproc < 1 {
		return core.BusPoint{}, fmt.Errorf("core: nproc %d < 1", nproc)
	}
	d, err := demand(ctx, s, p, costs)
	if err != nil {
		return core.BusPoint{}, err
	}
	rs, err := ev.curveShared(ctx, d, nproc)
	if err != nil {
		return core.BusPoint{}, err
	}
	return core.BusPointFromResidence(d, nproc, rs[nproc-1]), nil
}

// BusPower implements core.PowerEvaluator, so the evaluator plugs
// directly into APLToMatchWith, MaxShdForPowerWith, and RankBusWith.
func (ev *Evaluator) BusPower(s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (float64, error) {
	pt, err := ev.BusPointCtx(context.Background(), s, p, costs, nproc)
	if err != nil {
		return 0, err
	}
	return pt.Power, nil
}
