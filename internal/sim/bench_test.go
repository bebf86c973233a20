package sim

import (
	"fmt"
	"runtime"
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func benchTrace(b *testing.B, instr int) *trace.Trace {
	b.Helper()
	return benchTraceOf(b, "pops", instr)
}

func benchTraceOf(b *testing.B, preset string, instr int) *trace.Trace {
	b.Helper()
	cfg, err := tracegen.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	cfg.InstrPerCPU = instr
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSimHotLoop drives the engine's per-record path (protocol
// dispatch, cost application, cache access) with each protocol on the
// bus, plus Base on the multistage network; refs/s is trace records
// simulated per second, and the allocs/op figure guards the hot loop
// against regressing into per-access allocation.
func BenchmarkSimHotLoop(b *testing.B) {
	tr := benchTrace(b, 20_000)
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	type hotCase struct {
		name string
		cfg  Config
	}
	var cases []hotCase
	for p := range protoSchemes {
		cfg := Config{NCPU: tr.NCPU, Cache: cache, Protocol: Protocol(p)}
		cases = append(cases, hotCase{cfg.Protocol.String(), cfg})
	}
	cases = append(cases, hotCase{"Base-network", Config{NCPU: tr.NCPU, Cache: cache, Protocol: ProtoBase, Medium: MediumNetwork}})
	for _, hc := range cases {
		b.Run(hc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(hc.cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(tr.Refs))/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkSimRestricted runs 1-, 4- and 8-processor machines from one
// Prepared 8-processor pero8 trace, as the validation experiments sweep
// machine sizes. The trace is validated and threaded once, outside the
// timer, so refs/s counts simulated records (those of the machine's
// processors) per second and nothing else.
func BenchmarkSimRestricted(b *testing.B) {
	p, err := Prepare(benchTraceOf(b, "pero8", 10_000))
	if err != nil {
		b.Fatal(err)
	}
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for _, n := range []int{1, 4, 8} {
		cfg := Config{NCPU: n, Cache: cache, Protocol: ProtoDragon}
		b.Run(fmt.Sprintf("ncpu=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(p.Records(n))/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkSimPrepare is the validating, threading pass every simulated
// trace goes through once; records/s is trace records prepared per
// second, and B/record is the walk state a Prepared holds per record
// (allocated bytes over records).
func BenchmarkSimPrepare(b *testing.B) {
	tr := benchTraceOf(b, "pero8", 10_000)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N) * float64(len(tr.Refs))
	b.ReportMetric(records/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
}
