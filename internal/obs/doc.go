// Package obs is the observability substrate shared by the serving
// tiers and the evaluator: monotonic-clock spans, lock-free fixed-bucket
// latency histograms, request trace-ID propagation over
// context.Context, and the one Prometheus text writer. It has no
// dependencies beyond the standard library and knows nothing about HTTP
// or the model. Callers own their counters and declare their families
// (Family: name, type, help) once, as a table; Page renders a /metrics
// page from that table and nothing else.
//
// Invariants the rest of the repository relies on:
//
//   - Histogram recording is wait-free on the hot path: one atomic add
//     into a log-spaced bucket, one atomic add to the count, and one
//     CAS-loop float add to the sum. No mutex is ever taken, so
//     concurrent request completions never serialize on the registry
//     (see DESIGN.md §9 for why this is chosen over a mutex-guarded
//     histogram and what scrape-time consistency it trades away).
//   - A Snapshot taken while writers are active is monotonic per bucket
//     but only approximately consistent across buckets/sum/count; a
//     snapshot taken after writers quiesce is exact. Prometheus
//     semantics (cumulative le buckets, +Inf == count) are preserved
//     either way.
//   - Spans use the monotonic clock embedded in time.Time, so measured
//     durations are immune to wall-clock steps (NTP, suspend).
//   - A Page emits only its table's families, in table order, so a
//     tier's table is its whole page and OPERATIONS.md is checked
//     against the tables, not against scrapes.
//   - Trace IDs are opaque strings carried by context.Context only —
//     no globals — so propagation works across API layers and worker
//     goroutines exactly as far as the context is threaded.
package obs
