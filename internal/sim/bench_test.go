package sim

import (
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func benchTrace(b *testing.B, instr int) *trace.Trace {
	b.Helper()
	cfg, err := tracegen.Preset("pops")
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
	for p := range protoNames {
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

// BenchmarkTraceRestrict covers the counting-pass preallocation in
// trace.Restrict, which the parallel validation experiments call once
// per (scheme, machine size) job.
func BenchmarkTraceRestrict(b *testing.B) {
	tr := benchTrace(b, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := tr.Restrict(2); len(sub.Refs) == 0 {
			b.Fatal("empty restriction")
		}
	}
}
