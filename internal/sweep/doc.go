// Package sweep is the repo's batched, parallel evaluation layer for the
// analytical model: a worker-pool engine that evaluates grids of
// (scheme, workload, machine-size) points deterministically, and a
// memoizing evaluator that deduplicates the ComputeDemand and
// SingleServerMVA solves underneath repeated model queries (sensitivity
// tables, bisections, advisor rankings, parameter sweeps).
//
// Determinism: every solve is a pure function of its inputs, results are
// written into caller-indexed slots, and cache hits return values the
// same code path produced on the miss — so parallel and cached runs are
// bit-identical to sequential fresh runs regardless of scheduling.
// Cached results are bit-identical to cold solves: the cache only
// decides who computes and where the bytes live, never what they are,
// and eviction under a capped evaluator costs a re-solve, never a
// different answer.
//
// Observability: an Evaluator optionally reports what it is doing
// through an Observer (SetObserver) — per-stage wall time for the cache
// lookup, the singleflight wait, and the cold solve, plus discrete
// hit/miss/dedup-join/evict events. Every query method (DemandCtx,
// EvaluateBusCtx, BusPointCtx) takes the caller's context.Context, whose
// trace ID correlates those events with a request and whose cancellation
// stops work early; a context never changes what a completed query
// computes.
package sweep
