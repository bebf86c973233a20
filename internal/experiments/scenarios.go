package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{
		ID: "scenarios", Paper: "Extension (Sec. 5.2 synthesis)",
		Title: "Scheme recommendation per deployment scenario (trace -> measure -> rank)",
		Run:   runScenarios,
	})
}

// runScenarios exercises the full pipeline for four deployment
// scenarios: generate the scenario's trace, measure its Table 2
// parameters, and rank the implementable coherence schemes on a
// 16-processor bus. It reproduces Section 5.2's qualitative guidance
// ("in such environments No-Cache is a viable alternative") with the
// library's own advisor.
func runScenarios(ctx context.Context, opt Options) (*Dataset, error) {
	const nproc = 16
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	candidates := []core.Scheme{core.Dragon{}, core.SoftwareFlush{}, core.NoCache{}}
	tab := &report.Table{Header: []string{
		"scenario", "shd", "apl", "best", "best power",
		"No-Cache power", "No-Cache vs best",
	}}
	ds := &Dataset{
		ID:    "scenarios",
		Title: fmt.Sprintf("Recommended coherence scheme per workload scenario (%d-processor bus)", nproc),
	}
	// Scenarios are independent trace->measure->rank pipelines. They
	// run one after another, so one trace is live at a time; each
	// measurement runs its stream pass and shadows concurrently
	// (runMemo.extract). Ranking goes through the shared cache-backed
	// evaluator.
	memo := memoFrom(ctx)
	for _, scenario := range []string{"timeshare", "message", "pops", "pero"} {
		cfg, err := tracegen.Preset(scenario)
		if err != nil {
			return nil, err
		}
		cfg.InstrPerCPU = int(float64(cfg.InstrPerCPU) * opt.traceScale())
		if cfg.InstrPerCPU < 2000 {
			cfg.InstrPerCPU = 2000
		}
		m, err := memo.extract(ctx, memo.source(cfg), cache)
		if err != nil {
			return nil, err
		}
		ranked, err := core.RankBusWith(busEval, candidates, m.Params, core.BusCosts(), nproc)
		if err != nil {
			return nil, err
		}
		best := ranked[0]
		var noCachePower float64
		for _, r := range ranked {
			if r.Scheme.Name() == "No-Cache" {
				noCachePower = r.Power
			}
		}
		tab.AddRow(scenario,
			fmt.Sprintf("%.3f", m.Params.Shd),
			fmt.Sprintf("%.1f", m.Params.APL),
			best.Scheme.Name(),
			fmt.Sprintf("%.2f", best.Power),
			fmt.Sprintf("%.2f", noCachePower),
			fmt.Sprintf("%.0f%%", 100*noCachePower/best.Power))
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"Section 5.2: with little sharing (time-sharing, message passing) even No-Cache is viable; with real sharing the software schemes need hardware-grade apl or lose badly")
	return ds, nil
}
