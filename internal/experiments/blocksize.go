package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/measure"
	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{
		ID: "blocksize", Paper: "Extension (Sec. 2.2 caveat)",
		Title: "Block-size trade-off: miss rate vs transfer cost, simulation and model",
		Run:   runBlockSize,
	})
}

// runBlockSize explores the effect the paper deliberately excludes from
// its workload model ("miss rates depend on block size, cache size, and
// so on. We don't try to model those effects"): replay one workload at
// several block sizes, measure how the miss rate falls as blocks grow,
// and feed the measured rates back into the model with correspondingly
// scaled cost tables. Simulation and model must agree on where the
// trade-off turns.
func runBlockSize(ctx context.Context, opt Options) (*Dataset, error) {
	cfg, err := tracegen.Preset("pops")
	if err != nil {
		return nil, err
	}
	cfg.InstrPerCPU = int(float64(cfg.InstrPerCPU) * opt.traceScale())
	if cfg.InstrPerCPU < 2000 {
		cfg.InstrPerCPU = 2000
	}
	ds := &Dataset{
		ID:     "blocksize",
		Title:  "Dragon power vs block size (64KB caches, pops-like workload)",
		XLabel: "block size (bytes, log scale)",
		YLabel: "processing power",
		LogX:   true,
	}
	tab := &report.Table{Header: []string{"block bytes", "msdat", "mains", "sim power", "model power"}}
	simSeries := plot.Series{Name: "simulation"}
	modelSeries := plot.Series{Name: "model (measured rates)"}
	// One trace per block size, each released before the next is
	// generated. The 16-byte trace is the default pops trace, visited
	// last so the validation figures after blocksize in traceLane read
	// it without generating it again; the rows keep block-size order.
	measured := map[int]*measure.Measurement{}
	memo := memoFrom(ctx)
	for _, bs := range []int{8, 32, 64, 128, 16} {
		// The generator emits block-aligned sharing for its
		// configured block size; regenerate per size so flush
		// records stay aligned.
		gcfg := cfg
		gcfg.BlockSize = bs
		m, err := memo.extract(ctx, memo.source(gcfg), sim.CacheConfig{Size: 64 * 1024, BlockSize: bs, Assoc: 2})
		if err != nil {
			return nil, err
		}
		measured[bs] = m
	}
	for _, bs := range []int{8, 16, 32, 64, 128} {
		m := measured[bs]
		// The measurement's Dragon shadow is the full-machine Dragon
		// simulation.
		power := m.Dragon.Power()
		costs := core.BusCostsForBlock(bs / 4)
		modelPts, err := core.EvaluateBus(core.Dragon{}, m.Params, costs, cfg.NCPU)
		if err != nil {
			return nil, err
		}
		simSeries.X = append(simSeries.X, float64(bs))
		simSeries.Y = append(simSeries.Y, power)
		modelSeries.X = append(modelSeries.X, float64(bs))
		modelSeries.Y = append(modelSeries.Y, modelPts[cfg.NCPU-1].Power)
		tab.AddRow(fmt.Sprint(bs),
			fmt.Sprintf("%.4f", m.Params.MsDat), fmt.Sprintf("%.4f", m.Params.MsIns),
			fmt.Sprintf("%.3f", power), fmt.Sprintf("%.3f", modelPts[cfg.NCPU-1].Power))
	}
	ds.Series = []plot.Series{simSeries, modelSeries}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"the synthetic workload's locality is block-granular, so larger blocks buy no extra hits here — they only raise cache pressure and per-miss cost, and power falls monotonically",
		"the point is methodological: fed the per-size measured rates and the per-size scaled cost table, the model tracks the simulation at every block size",
		"block-size effects are exactly what the paper's workload model deliberately leaves out (Section 2.2: 'We don't try to model those effects')")
	return ds, nil
}
