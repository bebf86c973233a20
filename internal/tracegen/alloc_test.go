//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make the counts unreliable, so
// `go test -race` skips these and `make alloc-check` runs them without
// instrumentation.

package tracegen

import (
	"runtime"
	"testing"
	"unsafe"

	"swcc/internal/trace"
)

// TestGenerateAllocBudget pins Generate to writing each trace once: it
// allocates at most 1.1 times the finished trace's bytes on every
// preset. Generating whole per-processor streams and then
// interleaving them into a new buffer costs about 3.2 times.
func TestGenerateAllocBudget(t *testing.T) {
	const budget = 1.1
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(int(unsafe.Sizeof(trace.Ref(0)))*len(tr.Refs))
		t.Logf("%s: %.3fx the trace's %d records", name, ratio, len(tr.Refs))
		if ratio > budget {
			t.Errorf("%s: Generate allocates %.3fx the trace's bytes, budget %.1fx", name, ratio, budget)
		}
	}
}
