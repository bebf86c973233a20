//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make the counts unreliable, so
// `go test -race` skips these and `make alloc-check` runs them without
// instrumentation.

package sim

import (
	"runtime"
	"testing"

	"swcc/internal/trace"
)

// TestRunAllocBudget pins Run's memory per trace record: the engine walks
// the trace in place through a 1-byte skip to the next record per
// record, so with the per-processor caches it stays under 5 bytes a
// record. A 4-byte next-record link per record, or a copy of the trace
// into per-processor streams (8 bytes a record more), fails it.
func TestRunAllocBudget(t *testing.T) {
	const budget = 5
	tr := genTrace(t, "pops", 20_000)
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for p := range protoSchemes {
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

// TestRestrictedRunAllocBudget pins the in-place walk of a machine
// smaller than the trace: a 1..7-processor run of the 8-processor pero8
// trace allocates its caches plus one 1-byte skip per full-trace record,
// and nothing per simulated record. A 4-byte link per full-trace record,
// or a copy of the restricted records (8 bytes each, 1 byte per
// full-trace record even at one processor), fails it. Both runs are the
// least of three, as in TestPreparedRunAllocBudget: a single run now
// and then picks up ~5 KB of the runtime's background allocation, which
// the slack's ~1.8 KB of headroom cannot absorb.
func TestRestrictedRunAllocBudget(t *testing.T) {
	// pageSlack absorbs the rounding of the skip array's allocation up
	// to whole pages.
	const budget, pageSlack = 1, 8 << 10
	tr := genTrace(t, "pero8", 20_000)
	empty := &trace.Trace{NCPU: tr.NCPU}
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for n := 1; n < tr.NCPU; n++ {
		cfg := Config{NCPU: n, Cache: cache, Protocol: ProtoDragon}
		// Run on a trace with no records allocates the caches and the
		// engine, and nothing per record.
		fixed := runAlloc(t, cfg, empty)
		extra := runAlloc(t, cfg, tr) - fixed
		t.Logf("%d cpus: %d bytes beyond the caches over %d records", n, extra, len(tr.Refs))
		if extra > budget*uint64(len(tr.Refs))+pageSlack {
			t.Errorf("%d cpus: Run allocates %.2f bytes per full-trace record beyond the caches, budget %d",
				n, float64(extra)/float64(len(tr.Refs)), budget)
		}
	}
}

// TestPreparedRunAllocBudget pins a run from a Prepared: it allocates
// the machine (caches, interconnect, O(NCPU) state) and nothing per
// record, whatever the protocol, medium or machine size. Each run of
// the 8-processor pero8 trace, warmed on half its records, allocates
// within slack of the same machine's run of an empty trace. The slack
// covers the warmup snapshot's per-processor copies (about 1 KB at 8
// processors); the least of three runs filters the runtime's occasional
// background allocation (up to ~6 KB in a single run). One byte per
// simulated record (at least 27,000 here) fails it.
func TestPreparedRunAllocBudget(t *testing.T) {
	const slack = 4 << 10
	tr := genTrace(t, "pero8", 20_000)
	p, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Prepare(&trace.Trace{NCPU: tr.NCPU})
	if err != nil {
		t.Fatal(err)
	}
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for proto := range protoSchemes {
		for _, medium := range []Medium{MediumBus, MediumNetwork} {
			if medium == MediumNetwork && (Protocol(proto) == ProtoDragon || Protocol(proto) == ProtoWriteInvalidate) {
				continue
			}
			for _, n := range []int{1, tr.NCPU / 2, tr.NCPU} {
				cfg := Config{NCPU: n, Cache: cache, Protocol: Protocol(proto), Medium: medium}
				fixed := minAllocOf(t, func() error { _, err := empty.Run(cfg); return err })
				cfg.WarmupRefs = p.Records(n) / 2
				got := minAllocOf(t, func() error { _, err := p.Run(cfg); return err })
				extra := int64(got) - int64(fixed)
				t.Logf("%v/%v %d cpus: %d bytes beyond the empty trace's run over %d records", cfg.Protocol, medium, n, extra, p.Records(n))
				if extra > slack {
					t.Errorf("%v/%v %d cpus: a prepared run allocates %d bytes beyond the machine, budget %d",
						cfg.Protocol, medium, n, extra, slack)
				}
			}
		}
	}
}

// runAlloc returns the least bytes a Run allocates over three calls
// (see minAllocOf).
func runAlloc(t *testing.T, cfg Config, tr *trace.Trace) uint64 {
	t.Helper()
	return minAllocOf(t, func() error { _, err := Run(cfg, tr); return err })
}

// minAllocOf returns the least bytes run allocates over three calls,
// which filters out the runtime's occasional background allocation.
func minAllocOf(t *testing.T, run func() error) uint64 {
	t.Helper()
	least := allocOf(t, run)
	for range 2 {
		least = min(least, allocOf(t, run))
	}
	return least
}

// allocOf returns the bytes run allocates.
func allocOf(t *testing.T, run func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
