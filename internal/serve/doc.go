// Package serve is the HTTP model-serving layer: a JSON API over the
// analytical model, backed by one shared memoizing sweep.Evaluator so a
// long-running daemon amortizes demand and MVA solves across requests.
//
// The package provides the handler tree and production plumbing — strict
// input validation (unknown fields, NaN/Inf, and out-of-range workload
// parameters are rejected at the boundary with 400s), per-request
// timeouts, a concurrency limiter with backpressure, request body size
// caps, panic recovery, structured access logs, and Prometheus-style
// metrics — while cmd/cohered owns the process concerns (flags, signals,
// graceful shutdown, the optional pprof listener).
//
// Endpoints:
//
//	GET  /healthz         liveness + cache snapshot
//	GET  /metrics         Prometheus text format
//	POST /v1/bus          bus-model curve or single point
//	POST /v1/network      multistage-network point (Patel or MVA variant)
//	POST /v1/advisor      scheme rankings for a workload
//	POST /v1/sensitivity  one-at-a-time parameter sensitivity table
//	POST /v1/sweep        batch of bus-model points in one round trip
//
// Observability invariants (OPERATIONS.md is the operator-facing
// reference; DESIGN.md §9 the design rationale):
//
//   - Every request carries a trace ID: a valid client-supplied
//     X-Request-ID is honored, anything else is replaced by a generated
//     one; the ID is echoed in the X-Request-ID response header, stamped
//     on the access log line, and propagated via context.Context into
//     internal/sweep so evaluator cache events correlate with requests.
//   - Latency is recorded into fixed-bucket atomic histograms (aggregate,
//     per endpoint, and per pipeline stage: decode/validate, cache
//     lookup, singleflight wait, cold solve) — recording never takes a
//     lock, so metrics cannot become the serialization point the sharded
//     evaluator exists to remove.
//   - /metrics output is byte-stable: identical scrapes of an idle
//     server render identical bytes, because every family is rendered
//     by obs.Page in MetricFamilies order and labeled series are sorted.
//
// Every response is bit-identical to the equivalent library call: the
// handlers route through the same sweep.Evaluator code paths the CLIs
// use, and the evaluator's determinism contract (see internal/sweep)
// guarantees cache hits reproduce miss-path results exactly.
package serve
