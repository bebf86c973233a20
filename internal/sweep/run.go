package sweep

import (
	"context"
	"sort"

	"swcc/internal/core"
	"swcc/internal/obs"
	"swcc/internal/queueing"
)

// CurveRun is worker-local incremental solve state for a batch of points
// that share one (scheme, canonical params, cost table) — and therefore
// one MVA curve. Within a run, population-ascending points grow a
// private buffer by resuming the recursion where the previous point left
// off, instead of round-tripping the shared cache (and its singleflight
// machinery) once per point. Finish publishes the longest curve reached,
// so the whole batch costs the cache one write.
//
// The buffer is sized exactly on the run's first solve — the common
// single-point group allocates n results, no more — and grows
// geometrically after that, so a population-ascending grid costs
// O(log n) allocations, not one per step.
//
// A CurveRun is NOT safe for concurrent use: it belongs to one worker.
// Different workers running CurveRuns for the same key race only on the
// final publish, where the longest curve wins as usual.
type CurveRun struct {
	ev  *Evaluator
	d   core.Demand
	key mvaKey
	buf []queueing.SingleServerResult // private growing curve; nil until first local solve
}

// StartCurveRun resolves the batch group's shared demand (through the
// demand cache) and returns a run ready to answer per-point queries.
// The workload must already be validated — per-point raw-params
// validation stays with the caller, which is what keeps an invalid
// point erroring even when a canonically equal valid point shares its
// group (see TestInvalidParamsErrorDespiteCache).
func (ev *Evaluator) StartCurveRun(ctx context.Context, s core.Scheme, p core.Params, costs *core.CostTable) (*CurveRun, error) {
	d, err := ev.DemandCtx(ctx, s, p, costs)
	if err != nil {
		return nil, err
	}
	return &CurveRun{ev: ev, d: d, key: mvaKey{d.Think(), d.Interconnect, d.Priority}}, nil
}

// Demand returns the group's shared per-instruction demand.
func (r *CurveRun) Demand() core.Demand { return r.d }

// curveTo returns a slice covering populations 1..n: the run's private
// buffer, or a shared immutable cache entry. Callers must not mutate or
// retain it past the next curveTo/Finish call.
func (r *CurveRun) curveTo(ctx context.Context, n int) ([]queueing.SingleServerResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := r.ev
	if len(r.buf) >= n {
		// Served by earlier work in this same run: a hit in every sense
		// that matters to the counters.
		ev.mvaHits.Add(1)
		if ev.obsv != nil {
			ev.obsv.CacheEvent(ctx, "mva", EventHit)
		}
		return r.buf, nil
	}
	sh := &ev.curves[r.key.shard()]
	var sp obs.Span
	if ev.obsv != nil {
		sp = obs.Start()
	}
	sh.mu.RLock()
	var prefix []queueing.SingleServerResult
	if sl, ok := sh.entries[r.key]; ok {
		sl.ref.Store(true)
		if len(sl.v) >= n {
			out := sl.v // immutable once published
			sh.mu.RUnlock()
			ev.mvaHits.Add(1)
			if ev.obsv != nil {
				ev.obsv.StageObserved(ctx, StageCacheLookup, sp.Seconds())
				ev.obsv.CacheEvent(ctx, "mva", EventHit)
			}
			return out, nil
		}
		prefix = sl.v
	}
	sh.mu.RUnlock()

	// Extend locally from the longest seed available: the run's own
	// buffer (in-place growth) or the cached prefix (copied into a new
	// buffer by the solver).
	var ssp obs.Span
	if ev.obsv != nil {
		ssp = obs.Start()
	}
	seed := prefix
	inPlace := false
	if r.d.Priority > 0 {
		// The priority recursion's inter-population state is per-class
		// and not stored in the curve, so it cannot resume from a seed:
		// always solve cold (the run's buffer may still be overwritten
		// in place).
		seed = nil
		inPlace = r.buf != nil
	} else if r.buf != nil && len(r.buf) >= len(prefix) {
		seed = r.buf
		inPlace = true
	}
	// Pick the destination: the run's buffer when it is the seed and has
	// room; otherwise a new buffer (the solver copies the seed into it),
	// exactly n long on the run's first solve and at least double the
	// old capacity after that.
	var dst []queueing.SingleServerResult
	switch {
	case inPlace && cap(r.buf) >= n:
		dst = r.buf[:0]
	case r.buf == nil:
		dst = make([]queueing.SingleServerResult, 0, n)
	default:
		dst = make([]queueing.SingleServerResult, 0, max(n, 2*cap(r.buf)))
	}
	var ext []queueing.SingleServerResult
	var err error
	if r.d.Priority > 0 {
		hi, lo := r.d.PrioritySplit()
		ext, err = queueing.PrioritySingleServerMVA(r.d.Think(), hi, lo, n, dst)
	} else {
		ext, err = queueing.ExtendSingleServerMVA(r.d.Think(), r.d.Interconnect, seed, n, dst)
	}
	if err != nil {
		return nil, err
	}
	r.buf = ext
	ev.mvaSolves.Add(1)
	if len(seed) > 0 {
		ev.curveExtends.Add(1)
	} else {
		ev.curveFullSolves.Add(1)
	}
	if ev.obsv != nil {
		ev.obsv.StageObserved(ctx, StageSolve, ssp.Seconds())
		ev.obsv.CacheEvent(ctx, "mva", EventMiss)
	}
	return r.buf, nil
}

// BusPointAt returns the bus-model prediction at exactly nproc
// processors, growing the run's curve as needed. Results are
// bit-identical to Evaluator.BusPointCtx for the same inputs.
func (r *CurveRun) BusPointAt(ctx context.Context, nproc int) (core.BusPoint, error) {
	c, err := r.curveTo(ctx, nproc)
	if err != nil {
		return core.BusPoint{}, err
	}
	return core.BusPointFromMVA(r.d, c[nproc-1]), nil
}

// BusPointsInto fills dst (reused when cap(dst) >= maxProcs) with the
// predictions for 1..maxProcs, bit-identical to Evaluator.EvaluateBusCtx.
func (r *CurveRun) BusPointsInto(ctx context.Context, maxProcs int, dst []core.BusPoint) ([]core.BusPoint, error) {
	c, err := r.curveTo(ctx, maxProcs)
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
		points[i] = core.BusPointFromMVA(r.d, c[i])
	}
	return points, nil
}

// Finish publishes the run's curve to the shared cache when it is longer
// than what is already there; the published slice becomes cache-owned
// and immutable. Curves are published with len == cap, so the cache
// holds no spare capacity: a run that over-grew its buffer pays one
// trim copy here. Finish must be the run's last call.
func (r *CurveRun) Finish(ctx context.Context) {
	v := r.buf
	r.buf = nil
	if len(v) == 0 {
		return
	}
	if cap(v) > len(v) {
		v = append(make([]queueing.SingleServerResult, 0, len(v)), v...)
	}
	ev := r.ev
	sh := &ev.curves[r.key.shard()]
	evicted := false
	sh.mu.Lock()
	if sl, ok := sh.entries[r.key]; !ok || len(sl.v) < len(v) {
		if sh.put(r.key, v, ev.shardCap) {
			ev.curveEvictions.Add(1)
			evicted = true
		}
	}
	sh.mu.Unlock()
	if evicted && ev.obsv != nil {
		ev.obsv.CacheEvent(ctx, "mva", EventEvict)
	}
}

// BatchGroups partitions point indices 0..n-1 into groups that share one
// (scheme, canonical workload) pair — and hence one demand solve and one
// MVA curve — with each group sorted population-ascending so a CurveRun
// visits it in pure-extension order. at reports point i's fields.
// Groups appear in first-occurrence order and sorting is stable, so the
// decomposition is deterministic; callers still write per-point results
// by index, keeping output order independent of grouping.
func BatchGroups(n int, at func(i int) (core.Scheme, core.Params, int)) [][]int {
	groups := map[core.Key]int{}
	out := [][]int{}
	nprocs := make([]int, n)
	for i := 0; i < n; i++ {
		s, p, nproc := at(i)
		nprocs[i] = nproc
		k := core.KeyOf(s, p)
		gi, ok := groups[k]
		if !ok {
			gi = len(out)
			groups[k] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], i)
	}
	for _, g := range out {
		sort.SliceStable(g, func(a, b int) bool { return nprocs[g[a]] < nprocs[g[b]] })
	}
	return out
}
