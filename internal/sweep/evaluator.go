package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"swcc/internal/core"
	"swcc/internal/obs"
	"swcc/internal/queueing"
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
	// StageSolve is the time of a real cold solve (core.ComputeDemand or
	// queueing.SingleServerMVA).
	StageSolve = "solve"
)

// Cache event names the Evaluator reports through an Observer. The
// cache label is "demand" or "mva", matching the /metrics label values.
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
	// CacheEvent reports a discrete cache outcome. Cache is "demand" or
	// "mva"; event is one of the Event* constants.
	CacheEvent(ctx context.Context, cache, event string)
}

// Stats counts the evaluator's cache traffic. A "solve" is one real
// ComputeDemand or one SingleServerMVA recursion; hits served from memory
// and misses deduplicated onto another goroutine's in-flight solve are
// counted separately.
type Stats struct {
	// DemandSolves and DemandHits count ComputeDemand evaluations and
	// cache hits.
	DemandSolves, DemandHits uint64
	// MVASolves and MVAHits count SingleServerMVA recursions and curve
	// cache hits. MVASolves is the sum of CurveExtends and
	// CurveFullSolves: every real recursion segment, however seeded.
	MVASolves, MVAHits uint64
	// CurveExtends counts MVA solves that resumed the recursion from a
	// cached shorter curve instead of restarting at population 1;
	// CurveFullSolves counts solves that started cold. Their ratio says
	// how much of the kernel's work the incremental path is saving.
	CurveExtends, CurveFullSolves uint64
	// DemandDedups and MVADedups count concurrent misses that waited for
	// (and shared) another goroutine's in-flight solve instead of
	// re-solving — the singleflight savings under parallel load.
	DemandDedups, MVADedups uint64
	// DemandEvictions and CurveEvictions count entries dropped by the
	// bounded-capacity CLOCK policy. Always zero on an unbounded
	// evaluator.
	DemandEvictions, CurveEvictions uint64
	// DemandEntries, CurveEntries, and TableEntries are the current
	// sizes of the three memo caches — the numbers a long-running server
	// watches to know its caches are bounded by distinct-work (or by the
	// configured capacity), not time.
	DemandEntries, CurveEntries, TableEntries int
	// Shards is the number of lock stripes each cache is split across.
	Shards int
}

// demandKey identifies one demand solve: the query's cache identity
// (core.KeyOf) and the cost table's content fingerprint.
type demandKey struct {
	id    core.Key
	table string
}

// mvaKey identifies a single-server MVA curve by its real inputs: think
// time, total service demand, and the high-priority share of service
// (zero for every FCFS curve, so pre-priority keys are unchanged).
type mvaKey struct {
	think, service, prio float64
}

// numShards is the lock-stripe count for the demand and curve caches.
// Power of two so the shard index is a mask; 32 stripes keep the
// collision probability on a busy server low without bloating the
// per-evaluator footprint.
const numShards = 32

func (k demandKey) shard() int {
	h := k.id.Hash(core.FNVOffset)
	h = core.HashBytes(h, k.table)
	return int(h & (numShards - 1))
}

func (k mvaKey) shard() int {
	h := core.HashFloat(core.FNVOffset, k.think)
	h = core.HashFloat(h, k.service)
	h = core.HashFloat(h, k.prio)
	return int(h & (numShards - 1))
}

// --- lock-striped shard storage ---

// slot is one cached value plus its CLOCK reference bit. The bit is set
// atomically on hits (under the shard's read lock, where plain writes
// would race) and swept under the write lock by eviction.
type slot[V any] struct {
	v   V
	ref atomic.Bool
}

// flight is one in-flight solve other goroutines can wait on instead of
// re-solving. n is the curve length being solved (1 for demand flights,
// where any result covers any waiter). v and err are written exactly once
// before done is closed and never mutated after, so waiters may read them
// without a lock.
type flight[V any] struct {
	n    int
	done chan struct{}
	v    V
	err  error
}

// striped is one lock stripe of a cache: the resident entries, CLOCK
// eviction metadata, and the singleflight calls for keys that hash here.
// Hits take only mu.RLock; misses, publishes, and evictions take mu.
type striped[K comparable, V any] struct {
	mu       sync.RWMutex
	entries  map[K]*slot[V]
	inflight map[K]*flight[V]
	ring     []K // CLOCK ring; maintained only when the shard is capped
	hand     int
}

func (s *striped[K, V]) init() {
	s.entries = map[K]*slot[V]{}
	s.inflight = map[K]*flight[V]{}
}

// put inserts v, evicting one CLOCK victim first when the shard is at
// cap (cap <= 0 = unbounded); the new key takes the victim's ring slot.
// Caller holds mu. Reports whether an eviction happened.
func (s *striped[K, V]) put(key K, v V, cap int) bool {
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
	s.entries[key] = &slot[V]{v: v}
	return evicted
}

// evict removes one entry by the CLOCK policy and returns its ring slot:
// the hand sweeps the ring clearing reference bits, and the first entry
// not referenced since its last sweep is the victim. The hand stops just
// past the victim, so with no hits entries leave in insertion order.
// Caller holds mu exclusively, so no reader can set a bit mid-sweep and
// the loop terminates within one revolution.
func (s *striped[K, V]) evict() int {
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

// Evaluator memoizes demand and MVA solves. It is safe for concurrent
// use and designed to scale with cores: both caches are split across
// lock-striped shards whose hits take only a read lock, bookkeeping is
// atomic, and concurrent misses on one key are deduplicated onto a
// single in-flight solve (singleflight) whose result every waiter
// shares. The zero value is not ready — construct with NewEvaluator or
// NewEvaluatorCap.
type Evaluator struct {
	demands  [numShards]striped[demandKey, core.Demand]
	curves   [numShards]striped[mvaKey, []queueing.SingleServerResult]
	tables   tableMemo
	shardCap int // per-shard entry cap for each cache; 0 = unbounded

	demandSolves, demandHits, demandDedups atomic.Uint64
	mvaSolves, mvaHits, mvaDedups          atomic.Uint64
	curveExtends, curveFullSolves          atomic.Uint64
	demandEvictions, curveEvictions        atomic.Uint64

	// obsv, when non-nil, receives stage timings and cache events. Set
	// once via SetObserver before the evaluator sees traffic; nil (the
	// default) makes every instrumentation point a single branch.
	obsv Observer

	// waitHook, when non-nil, runs on the singleflight wait path after a
	// goroutine has committed to waiting on another's in-flight solve.
	// Tests use it to hold a solve open until every racer is parked.
	waitHook func()
}

// SetObserver installs the evaluator's telemetry sink. It must be called
// before the evaluator is shared across goroutines (typically right
// after construction); passing nil disables observation.
func (ev *Evaluator) SetObserver(o Observer) { ev.obsv = o }

// NewEvaluator returns an empty, unbounded cache.
func NewEvaluator() *Evaluator { return NewEvaluatorCap(0) }

// NewEvaluatorCap returns an evaluator whose demand and curve caches are
// each bounded to roughly capacity entries, evicting by a per-shard
// CLOCK policy (hits set a reference bit; a sweeping hand evicts the
// first entry not referenced since its last pass). The capacity is split
// evenly across shards and rounded up, so the effective bound is
// Capacity(). capacity <= 0 means unbounded.
func NewEvaluatorCap(capacity int) *Evaluator {
	ev := &Evaluator{}
	if capacity > 0 {
		ev.shardCap = (capacity + numShards - 1) / numShards
	}
	for i := range ev.demands {
		ev.demands[i].init()
	}
	for i := range ev.curves {
		ev.curves[i].init()
	}
	ev.tables.m.Store(&sync.Map{})
	return ev
}

// Capacity returns the effective entry bound per cache (demand and curve
// each), or 0 when unbounded. It can exceed the capacity passed to
// NewEvaluatorCap by up to numShards-1 due to per-shard rounding.
func (ev *Evaluator) Capacity() int { return ev.shardCap * numShards }

// Stats returns a snapshot of the cache counters and current sizes. The
// counters are individually atomic, so a snapshot taken mid-traffic is
// approximate (e.g. hits may momentarily outpace solves).
func (ev *Evaluator) Stats() Stats {
	st := Stats{
		DemandSolves:    ev.demandSolves.Load(),
		DemandHits:      ev.demandHits.Load(),
		MVASolves:       ev.mvaSolves.Load(),
		MVAHits:         ev.mvaHits.Load(),
		CurveExtends:    ev.curveExtends.Load(),
		CurveFullSolves: ev.curveFullSolves.Load(),
		DemandDedups:    ev.demandDedups.Load(),
		MVADedups:       ev.mvaDedups.Load(),
		DemandEvictions: ev.demandEvictions.Load(),
		CurveEvictions:  ev.curveEvictions.Load(),
		TableEntries:    int(ev.tables.count.Load()),
		Shards:          numShards,
	}
	for i := range ev.demands {
		sh := &ev.demands[i]
		sh.mu.RLock()
		st.DemandEntries += len(sh.entries)
		sh.mu.RUnlock()
	}
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.RLock()
		st.CurveEntries += len(sh.entries)
		sh.mu.RUnlock()
	}
	return st
}

// ShardSizes returns the per-shard entry counts of the demand and curve
// caches, for export as per-shard gauges (a skewed distribution means a
// hot key range is hashing onto one stripe).
func (ev *Evaluator) ShardSizes() (demand, curve []int) {
	demand = make([]int, numShards)
	curve = make([]int, numShards)
	for i := range ev.demands {
		sh := &ev.demands[i]
		sh.mu.RLock()
		demand[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	for i := range ev.curves {
		sh := &ev.curves[i]
		sh.mu.RLock()
		curve[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return demand, curve
}

// tableMemoCap bounds the pointer-keyed fingerprint memo. Batch callers
// reuse a handful of table pointers, but a long-lived server handed a
// fresh *CostTable per request would otherwise grow the memo (and pin
// every table it has ever seen) forever. The memo only skips recomputing
// a cheap string — demand results are keyed by content, not pointer — so
// dropping it wholesale at the cap is correct and keeps memory bounded.
const tableMemoCap = 1024

// tableMemo is the pointer-keyed fingerprint memo: a sync.Map from
// *core.CostTable to its content fingerprint, swapped wholesale for a
// fresh map at tableMemoCap. Lookups are lock-free, so the hot demand
// path never serializes on fingerprinting. count tracks the current
// map's size; under a rare concurrent swap it may briefly overcount by
// the number of in-flight inserts, which only makes the bound tighter.
type tableMemo struct {
	m     atomic.Pointer[sync.Map]
	count atomic.Int64
}

// fingerprint returns a content key for the cost table, memoized by
// pointer (tables are immutable after construction). Content-based keying
// means two identical tables built by separate BusCosts() calls share
// demand-cache entries even though their pointers differ.
func (ev *Evaluator) fingerprint(costs *core.CostTable) string {
	m := ev.tables.m.Load()
	if fp, ok := m.Load(costs); ok {
		return fp.(string)
	}
	fp := costs.Name
	for _, op := range core.Ops() {
		if !costs.Defines(op) {
			continue
		}
		c := costs.Cost(op)
		fp += fmt.Sprintf("|%d:%x:%x", int(op), c.CPU, c.Interconnect)
	}
	if ev.tables.count.Load() >= tableMemoCap {
		if ev.tables.m.CompareAndSwap(m, &sync.Map{}) {
			ev.tables.count.Store(0)
		}
		m = ev.tables.m.Load()
	}
	if _, loaded := m.LoadOrStore(costs, fp); !loaded {
		ev.tables.count.Add(1)
	}
	return fp
}

// DemandCtx is a memoized core.ComputeDemand. The workload is
// validated first (mirroring ComputeDemand's own order) so an invalid
// Params always errors even when a canonically equal valid workload is
// already cached. Error results are not cached, and are shared with (not
// recomputed by) goroutines that deduplicated onto the failing solve.
// Stage timings and cache events reported to the evaluator's Observer
// carry ctx (and hence its trace ID), and a done ctx fails fast with its
// error — before probing the cache, and while parked on another
// goroutine's in-flight solve — so a timed-out or abandoned request
// stops consuming evaluator capacity.
func (ev *Evaluator) DemandCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable) (core.Demand, error) {
	if err := ctx.Err(); err != nil {
		return core.Demand{}, err
	}
	if err := p.Validate(); err != nil {
		return core.Demand{}, fmt.Errorf("%s: %w", s.Name(), err)
	}
	key := demandKey{core.KeyOf(s, p), ev.fingerprint(costs)}
	sh := &ev.demands[key.shard()]

	var sp obs.Span
	if ev.obsv != nil {
		sp = obs.Start()
	}
	sh.mu.RLock()
	if sl, ok := sh.entries[key]; ok {
		d := sl.v
		sl.ref.Store(true)
		sh.mu.RUnlock()
		ev.demandHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
			ev.obsv.CacheEvent(ctx, "demand", EventHit)
		}
		return d, nil
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	if sl, ok := sh.entries[key]; ok { // published while we upgraded the lock
		d := sl.v
		sl.ref.Store(true)
		sh.mu.Unlock()
		ev.demandHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
			ev.obsv.CacheEvent(ctx, "demand", EventHit)
		}
		return d, nil
	}
	if fl, ok := sh.inflight[key]; ok {
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
			return core.Demand{}, ctx.Err()
		}
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageDedupWait, wsp.Seconds())
		}
		if fl.err != nil {
			return core.Demand{}, fl.err
		}
		ev.demandDedups.Add(1)
		if ev.obsv != nil {
			ev.obsv.CacheEvent(ctx, "demand", EventDedupJoin)
		}
		return fl.v, nil
	}
	fl := &flight[core.Demand]{n: 1, done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	var ssp obs.Span
	if ev.obsv != nil {
		ssp = obs.Start()
	}
	fl.v, fl.err = core.ComputeDemand(s, p, costs)
	if ev.obsv != nil {
		ev.obsv.StageObserved(ctx, StageSolve, ssp.Seconds())
		ev.obsv.CacheEvent(ctx, "demand", EventMiss)
	}
	evicted := false
	sh.mu.Lock()
	delete(sh.inflight, key)
	if fl.err == nil {
		ev.demandSolves.Add(1)
		if sh.put(key, fl.v, ev.shardCap) {
			ev.demandEvictions.Add(1)
			evicted = true
		}
	}
	sh.mu.Unlock()
	close(fl.done)
	if evicted && ev.obsv != nil {
		ev.obsv.CacheEvent(ctx, "demand", EventEvict)
	}
	return fl.v, fl.err
}

// cloneCurve copies the first n results of a cached or in-flight curve
// so returned slices are caller-owned: the cache's backing arrays are
// immutable once published, and no two callers ever share one.
func cloneCurve(c []queueing.SingleServerResult, n int) []queueing.SingleServerResult {
	return append([]queueing.SingleServerResult(nil), c[:n]...)
}

// curve is curveShared with a caller-owned clone of the result, for the
// few callers that hand the slice to code outside the evaluator's
// immutability regime.
func (ev *Evaluator) curve(ctx context.Context, d core.Demand, n int) ([]queueing.SingleServerResult, error) {
	c, err := ev.curveShared(ctx, d, n)
	if err != nil {
		return nil, err
	}
	return cloneCurve(c, n), nil
}

// curveShared returns the MVA results for populations 1..n, reusing (a
// prefix of) a previously solved curve for the same (think, service) when
// long enough, and — the incremental kernel — resuming the recursion from
// a cached shorter curve when one exists instead of restarting at
// population 1. The MVA recursion's only inter-population state is the
// queue length, so both reuses are bit-identical to a cold solve of n.
//
// The returned slice has length >= n and is SHARED and immutable: it is
// a published cache entry, a completed flight value, or the solve about
// to become one. Callers must not mutate or pool it; use curve for a
// caller-owned copy.
//
// Concurrent misses on one key join an in-flight solve when its target
// population covers theirs; a request for a longer curve than the one in
// flight becomes a new leader (superseding the old flight for future
// waiters) rather than waiting for a result it cannot use. Either way
// the published curve for a key only ever grows.
func (ev *Evaluator) curveShared(ctx context.Context, d core.Demand, n int) ([]queueing.SingleServerResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := mvaKey{d.Think(), d.Interconnect, d.Priority}
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
		ev.mvaHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
			ev.obsv.CacheEvent(ctx, "mva", EventHit)
		}
		return out, nil
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	if sl, ok := sh.entries[key]; ok && len(sl.v) >= n {
		sl.ref.Store(true)
		out := sl.v
		sh.mu.Unlock()
		ev.mvaHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
			ev.obsv.CacheEvent(ctx, "mva", EventHit)
		}
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
			// As in DemandCtx: abandon the wait, not the leader's solve.
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
	// published: the recursion resumes from its final queue length
	// instead of restarting at population 1. The slice is immutable once
	// published, so holding the reference across the solve is safe even
	// if the entry is evicted or superseded meanwhile. Priority curves
	// cannot resume — their inter-population state is per-class and not
	// stored — so they always solve cold.
	var prefix []queueing.SingleServerResult
	if sl, ok := sh.entries[key]; ok && d.Priority == 0 {
		sl.ref.Store(true)
		prefix = sl.v
	}
	fl := &flight[[]queueing.SingleServerResult]{n: n, done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	var ssp obs.Span
	if ev.obsv != nil {
		ssp = obs.Start()
	}
	if d.Priority > 0 {
		hi, lo := d.PrioritySplit()
		fl.v, fl.err = queueing.PrioritySingleServerMVA(d.Think(), hi, lo, n, nil)
	} else {
		fl.v, fl.err = queueing.ExtendSingleServerMVA(d.Think(), d.Interconnect, prefix, n, nil)
	}
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

// curvePoint returns the single MVA result at population n, without the
// caller-owned-clone cost of curve: the hot single-point path (BusPointCtx,
// grid cells, bisections) only reads one element, so copying the whole
// prefix out of the cache on every hit would be pure memory traffic.
func (ev *Evaluator) curvePoint(ctx context.Context, d core.Demand, n int) (queueing.SingleServerResult, error) {
	key := mvaKey{d.Think(), d.Interconnect, d.Priority}
	sh := &ev.curves[key.shard()]
	var sp obs.Span
	if ev.obsv != nil {
		sp = obs.Start()
	}
	sh.mu.RLock()
	if sl, ok := sh.entries[key]; ok && len(sl.v) >= n {
		sl.ref.Store(true)
		r := sl.v[n-1]
		sh.mu.RUnlock()
		ev.mvaHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
			ev.obsv.CacheEvent(ctx, "mva", EventHit)
		}
		return r, nil
	}
	sh.mu.RUnlock()
	c, err := ev.curveShared(ctx, d, n)
	if err != nil {
		return queueing.SingleServerResult{}, err
	}
	return c[n-1], nil
}

// EvaluateBusCtx is a memoized core.EvaluateBus: identical results,
// served from the demand and curve caches when possible (ctx as in
// DemandCtx). When cap(dst) >= maxProcs the returned slice reuses dst's
// backing array, so a warm (demand-hit, curve-hit) evaluation allocates
// nothing; a nil or short dst allocates. The bus points are converted
// straight off the shared cached curve — the intermediate MVA slice is
// never cloned.
func (ev *Evaluator) EvaluateBusCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable, maxProcs int, dst []core.BusPoint) ([]core.BusPoint, error) {
	if maxProcs < 1 {
		return nil, fmt.Errorf("core: maxProcs %d < 1", maxProcs)
	}
	d, err := ev.DemandCtx(ctx, s, p, costs)
	if err != nil {
		return nil, err
	}
	mva, err := ev.curveShared(ctx, d, maxProcs)
	if err != nil {
		return nil, err
	}
	var points []core.BusPoint
	if cap(dst) >= maxProcs {
		points = dst[:maxProcs]
	} else {
		points = make([]core.BusPoint, maxProcs)
	}
	for i := 0; i < maxProcs; i++ {
		points[i] = core.BusPointFromMVA(d, mva[i])
	}
	return points, nil
}

// BusPointCtx returns the bus-model prediction at exactly nproc
// processors (ctx as in DemandCtx).
func (ev *Evaluator) BusPointCtx(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable, nproc int) (core.BusPoint, error) {
	if nproc < 1 {
		return core.BusPoint{}, fmt.Errorf("core: nproc %d < 1", nproc)
	}
	d, err := ev.DemandCtx(ctx, s, p, costs)
	if err != nil {
		return core.BusPoint{}, err
	}
	r, err := ev.curvePoint(ctx, d, nproc)
	if err != nil {
		return core.BusPoint{}, err
	}
	return core.BusPointFromMVA(d, r), nil
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
