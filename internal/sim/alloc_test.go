//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make the counts unreliable, so
// `go test -race` skips these and `make alloc-check` runs them without
// instrumentation.

package sim

import (
	"runtime"
	"testing"
)

// TestRunAllocBudget pins Run's memory per trace record: the engine walks
// the trace in place through a 4-byte next-record link per record, so
// with the per-processor caches it stays under 10 bytes a record. A copy
// of the trace into per-processor streams (16 bytes a record more) fails
// it.
func TestRunAllocBudget(t *testing.T) {
	const budget = 10
	tr := genTrace(t, "pops", 20_000)
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for p := range protoNames {
		cfg := Config{NCPU: tr.NCPU, Cache: cache, Protocol: Protocol(p)}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRef := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Refs))
		t.Logf("%v: %.2f bytes per record over %d records", cfg.Protocol, perRef, len(tr.Refs))
		if perRef > budget {
			t.Errorf("%v: Run allocates %.2f bytes per record, budget %d", cfg.Protocol, perRef, budget)
		}
	}
}
