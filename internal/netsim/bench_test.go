package netsim

import (
	"fmt"
	"testing"
)

// The benchmarks run the exact configurations of the `patel` and
// `packetsim` experiments, one sub-benchmark per think time (light load
// first), and report simulated cycles per second.

func BenchmarkRun(b *testing.B) {
	for _, think := range []float64{500, 250, 120, 60, 30, 15} {
		cfg := Config{Stages: 6, Think: think, Hold: 16, Cycles: 300_000, WarmupCycles: 30_000, Seed: 0xA5}
		b.Run(fmt.Sprintf("think=%g", think), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

func BenchmarkRunBuffered(b *testing.B) {
	for _, think := range []float64{400, 200, 100, 60, 40, 25} {
		cfg := BufferedConfig{Stages: 6, Think: think, Packets: 4, Cycles: 250_000, WarmupCycles: 25_000, Seed: 0xBEEF}
		b.Run(fmt.Sprintf("think=%g", think), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBuffered(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}
