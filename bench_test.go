package swcc_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation and
// micro benchmarks for the solvers and the simulator. Each
// table/figure benchmark regenerates the artifact's full dataset per
// iteration and reports a headline metric from the reproduction as a
// custom benchmark unit, so `go test -bench=.` doubles as the
// reproduction run.

import (
	"context"
	"testing"

	"swcc"
	"swcc/internal/core"
	"swcc/internal/experiments"
	"swcc/internal/queueing"
	"swcc/internal/sim"
	"swcc/internal/tracegen"
)

// benchOpts keeps validation traces moderate so the full bench suite
// stays in CI-friendly time.
var benchOpts = experiments.Options{TraceScale: 0.25}

// runExperiment is the shared driver: regenerate the dataset b.N times.
func runExperiment(b *testing.B, id string, opt experiments.Options) *experiments.Dataset {
	b.Helper()
	var ds *experiments.Dataset
	var err error
	for i := 0; i < b.N; i++ {
		ds, err = experiments.RunCtx(context.Background(), id, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	return ds
}

// lastY returns the final value of the named series.
func lastY(b *testing.B, ds *experiments.Dataset, name string) float64 {
	b.Helper()
	for _, s := range ds.Series {
		if s.Name == name && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1]
		}
	}
	b.Fatalf("series %q not found in %s", name, ds.ID)
	return 0
}

// ---- Tables ----

func BenchmarkTable1SystemModel(b *testing.B) {
	runExperiment(b, "table1", benchOpts)
}

func BenchmarkTables3to6Frequencies(b *testing.B) {
	runExperiment(b, "table3", benchOpts)
}

func BenchmarkTable7ParameterRanges(b *testing.B) {
	runExperiment(b, "table7", benchOpts)
}

func BenchmarkTable8Sensitivity(b *testing.B) {
	ds := runExperiment(b, "table8", benchOpts)
	_ = ds
	tab, err := swcc.AnalyzeSensitivity(swcc.Schemes(), 16)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := tab.Cell("apl", "Software-Flush")
	b.ReportMetric(c.PercentChange, "apl-swflush-%")
}

func BenchmarkTable9NetworkModel(b *testing.B) {
	runExperiment(b, "table9", benchOpts)
}

// ---- Validation figures ----

func BenchmarkFigure1Validation(b *testing.B) {
	ds := runExperiment(b, "fig1", benchOpts)
	b.ReportMetric(lastY(b, ds, "Dragon sim"), "dragon-sim-power4")
	b.ReportMetric(lastY(b, ds, "Dragon model"), "dragon-model-power4")
}

func BenchmarkFigure2CacheSize(b *testing.B) {
	ds := runExperiment(b, "fig2", benchOpts)
	b.ReportMetric(lastY(b, ds, "256K sim"), "power4-256K")
}

func BenchmarkFigure3EightCPU(b *testing.B) {
	ds := runExperiment(b, "fig3", benchOpts)
	b.ReportMetric(lastY(b, ds, "64K sim"), "power8-64K")
}

// ---- Bus figures ----

func BenchmarkFigure4LowSharing(b *testing.B) {
	ds := runExperiment(b, "fig4", benchOpts)
	b.ReportMetric(lastY(b, ds, "No-Cache"), "nocache-power16")
}

func BenchmarkFigure5MediumSharing(b *testing.B) {
	ds := runExperiment(b, "fig5", benchOpts)
	b.ReportMetric(lastY(b, ds, "Dragon"), "dragon-power16")
	b.ReportMetric(lastY(b, ds, "Software-Flush"), "swflush-power16")
}

func BenchmarkFigure6HighSharing(b *testing.B) {
	ds := runExperiment(b, "fig6", benchOpts)
	b.ReportMetric(lastY(b, ds, "No-Cache"), "nocache-power16")
}

func BenchmarkFigure7APLCurves(b *testing.B) {
	ds := runExperiment(b, "fig7", benchOpts)
	b.ReportMetric(lastY(b, ds, "SF apl=1"), "sf-apl1-power16")
	b.ReportMetric(lastY(b, ds, "SF apl=100"), "sf-apl100-power16")
}

func BenchmarkFigure8APLLowSharing(b *testing.B) {
	runExperiment(b, "fig8", benchOpts)
}

func BenchmarkFigure9APLMediumSharing(b *testing.B) {
	runExperiment(b, "fig9", benchOpts)
}

// ---- Network figures ----

func BenchmarkFigure10BusVsNetwork(b *testing.B) {
	ds := runExperiment(b, "fig10", benchOpts)
	b.ReportMetric(lastY(b, ds, "Software-Flush (net)"), "swflush-net-power64")
}

func BenchmarkFigure11NetworkUtilization(b *testing.B) {
	runExperiment(b, "fig11", benchOpts)
	u, err := swcc.NetworkUtilization(8, 0.03, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(u, "anchor-utilization")
}

// ---- Extensions / ablations ----

func BenchmarkExtPacketSwitching(b *testing.B) {
	runExperiment(b, "packet", benchOpts)
}

func BenchmarkExtDirectory(b *testing.B) {
	runExperiment(b, "directory", benchOpts)
}

func BenchmarkExtHybrid(b *testing.B) {
	ds := runExperiment(b, "hybrid", benchOpts)
	b.ReportMetric(lastY(b, ds, "Hybrid"), "all-lock-power16")
}

func BenchmarkExtCrossover(b *testing.B) {
	runExperiment(b, "crossover", benchOpts)
	apl, found, err := swcc.APLToMatch(swcc.Dragon{}, swcc.MiddleParams(), swcc.BusCosts(), 16)
	if err != nil || !found {
		b.Fatalf("crossover: %v %v", found, err)
	}
	b.ReportMetric(apl, "apl-to-match-dragon")
}

func BenchmarkExtNetworkMVA(b *testing.B) {
	runExperiment(b, "netmva", benchOpts)
}

func BenchmarkExtFigure10Simulated(b *testing.B) {
	ds := runExperiment(b, "fig10sim", benchOpts)
	b.ReportMetric(lastY(b, ds, "Software-Flush (net)"), "swflush-net-power16")
	b.ReportMetric(lastY(b, ds, "Software-Flush (bus)"), "swflush-bus-power16")
}

func BenchmarkExtPatelValidation(b *testing.B) {
	ds := runExperiment(b, "patel", experiments.Options{TraceScale: 0.1})
	b.ReportMetric(lastY(b, ds, "simulation"), "sim-U-heavy")
	b.ReportMetric(lastY(b, ds, "Patel model"), "model-U-heavy")
}

// BenchmarkExtInvalidate contrasts the Dragon update protocol against
// the write-invalidate extension under simulation (ablation for the
// paper's choice of Dragon).
func BenchmarkExtInvalidate(b *testing.B) {
	cfg, err := tracegen.Preset("pops")
	if err != nil {
		b.Fatal(err)
	}
	cfg.InstrPerCPU = 20_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	var dragon, wi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sim.Run(sim.Config{NCPU: tr.NCPU, Cache: cache, Protocol: sim.ProtoDragon}, tr)
		if err != nil {
			b.Fatal(err)
		}
		w, err := sim.Run(sim.Config{NCPU: tr.NCPU, Cache: cache, Protocol: sim.ProtoWriteInvalidate}, tr)
		if err != nil {
			b.Fatal(err)
		}
		dragon, wi = d.Power(), w.Power()
	}
	b.ReportMetric(dragon, "dragon-power")
	b.ReportMetric(wi, "write-invalidate-power")
}

func BenchmarkExtBlockSize(b *testing.B) {
	ds := runExperiment(b, "blocksize", benchOpts)
	b.ReportMetric(lastY(b, ds, "simulation"), "sim-power-128B")
}

func BenchmarkExtMemorySpeed(b *testing.B) {
	ds := runExperiment(b, "memspeed", benchOpts)
	b.ReportMetric(lastY(b, ds, "No-Cache"), "nocache-power-16cyc-mem")
}

func BenchmarkExtScenarios(b *testing.B) {
	runExperiment(b, "scenarios", benchOpts)
}

func BenchmarkExtEnvelope(b *testing.B) {
	runExperiment(b, "envelope", benchOpts)
}

// BenchmarkAblationContentionModel quantifies how much of the model's
// prediction comes from the queueing term: utilization with and without
// contention at 16 processors (DESIGN.md ablation).
func BenchmarkAblationContentionModel(b *testing.B) {
	p := core.MiddleParams()
	var withW, withoutW float64
	for i := 0; i < b.N; i++ {
		pts, err := core.EvaluateBus(core.SoftwareFlush{}, p, core.BusCosts(), 16)
		if err != nil {
			b.Fatal(err)
		}
		withW = pts[15].Power
		withoutW = 16.0 / pts[15].CPU
	}
	b.ReportMetric(withW, "power-with-contention")
	b.ReportMetric(withoutW, "power-no-contention")
}

// ---- Micro benchmarks ----

func BenchmarkMVASolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := queueing.SingleServerMVA(20, 3, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatelSolver(b *testing.B) {
	pn := queueing.NewPatelNetwork(8)
	for i := 0; i < b.N; i++ {
		if _, err := pn.SolvePatel(0.05, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemandComputation(b *testing.B) {
	p := core.MiddleParams()
	costs := core.BusCosts()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputeDemand(core.Dragon{}, p, costs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := tracegen.DefaultConfig()
	cfg.InstrPerCPU = 10_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := tracegen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tr.Refs)))
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := tracegen.DefaultConfig()
	cfg.InstrPerCPU = 10_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	simCfg := sim.Config{NCPU: tr.NCPU, Cache: sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}, Protocol: sim.ProtoDragon}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(simCfg, tr); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tr.Refs)))
	}
}

func BenchmarkExtPacketValidation(b *testing.B) {
	ds := runExperiment(b, "packetsim", experiments.Options{TraceScale: 0.1})
	b.ReportMetric(lastY(b, ds, "sim latency"), "sim-latency-heavy")
	b.ReportMetric(lastY(b, ds, "model latency"), "model-latency-heavy")
}
