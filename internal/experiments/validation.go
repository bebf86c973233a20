package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/measure"
	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{ID: "fig1", Paper: "Figure 1", Title: "Model vs simulation, Base and Dragon, 64KB caches", Run: runFig1})
	register(Spec{ID: "fig2", Paper: "Figure 2", Title: "Cache-size impact on Dragon, model vs simulation, ≤4 CPUs", Run: runFig2})
	register(Spec{ID: "fig3", Paper: "Figure 3", Title: "Cache-size impact on Dragon, model vs simulation, 8 CPUs", Run: runFig3})
}

// validationConfig returns the preset's generator configuration at the
// requested scale and seed, and the preset's name.
func validationConfig(opt Options, def string) (tracegen.Config, string, error) {
	preset := opt.Preset
	if preset == "" {
		preset = def
	}
	cfg, err := tracegen.Preset(preset)
	if err != nil {
		return tracegen.Config{}, "", err
	}
	cfg.InstrPerCPU = int(float64(cfg.InstrPerCPU) * opt.traceScale())
	if cfg.InstrPerCPU < 1000 {
		cfg.InstrPerCPU = 1000
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	return cfg, preset, nil
}

// protoScheme pairs a simulator protocol with its analytic scheme.
type protoScheme struct {
	proto  sim.Protocol
	scheme core.Scheme
}

// validate runs model-vs-simulation for the given schemes and cache size
// across machine sizes 1..NCPU on src's trace. It returns (simulated,
// modeled) power series per scheme plus the parameter measurement used
// by the model.
func validate(memo *runMemo, src traceSource, cache sim.CacheConfig, pairs []protoScheme) ([]plot.Series, *measure.Measurement, error) {
	m, err := memo.extract(src, cache)
	if err != nil {
		return nil, nil, err
	}
	// The measurement's shadow simulations are the full-machine Base
	// and Dragon runs.
	shadows := map[sim.Protocol]*sim.Result{sim.ProtoBase: m.Base, sim.ProtoDragon: m.Dragon}
	// The simulations dominate the cost and are independent across both
	// the scheme and the machine size: flatten (pair, n) into one job
	// grid and run it on all cores, writing each power into its own
	// slot. The analytic side goes through the shared cache.
	nsizes := src.gen.NCPU
	simPowers := make([]float64, len(pairs)*nsizes)
	if err := sweep.Each(0, len(simPowers), func(i int) error {
		pr := pairs[i/nsizes]
		n := i%nsizes + 1
		res := shadows[pr.proto]
		if res == nil || n < nsizes {
			var err error
			if res, err = memo.simulate(src, sim.Config{NCPU: n, Cache: cache, Protocol: pr.proto}); err != nil {
				return err
			}
		}
		simPowers[i] = res.Power()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var out []plot.Series
	for pi, pr := range pairs {
		simSeries := plot.Series{Name: pr.scheme.Name() + " sim"}
		modelSeries := plot.Series{Name: pr.scheme.Name() + " model"}
		modelPts, err := busEval.EvaluateBus(pr.scheme, m.Params, core.BusCosts(), nsizes)
		if err != nil {
			return nil, nil, err
		}
		for n := 1; n <= nsizes; n++ {
			simSeries.X = append(simSeries.X, float64(n))
			simSeries.Y = append(simSeries.Y, simPowers[pi*nsizes+n-1])
			modelSeries.X = append(modelSeries.X, float64(n))
			modelSeries.Y = append(modelSeries.Y, modelPts[n-1].Power)
		}
		out = append(out, simSeries, modelSeries)
	}
	return out, m, nil
}

func seriesTable(series []plot.Series) *report.Table {
	tab := &report.Table{Header: []string{"processors"}}
	for _, s := range series {
		tab.Header = append(tab.Header, s.Name)
	}
	if len(series) == 0 || len(series[0].X) == 0 {
		return tab
	}
	for i := range series[0].X {
		row := []string{report.FormatFloat(series[0].X[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
		}
		tab.AddRow(row...)
	}
	return tab
}

func runFig1(ctx context.Context, opt Options) (*Dataset, error) {
	gen, preset, err := validationConfig(opt, "pops")
	if err != nil {
		return nil, err
	}
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	series, m, err := validate(memoFrom(ctx), newTraceSource(gen), cache, []protoScheme{
		{sim.ProtoBase, core.Base{}},
		{sim.ProtoDragon, core.Dragon{}},
	})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		ID:     "fig1",
		Title:  fmt.Sprintf("Model vs simulation, Base & Dragon, 64KB caches, %q trace", preset),
		XLabel: "processors",
		YLabel: "processing power",
		Series: series,
		Table:  seriesTable(series),
	}
	ds.Notes = append(ds.Notes,
		fmt.Sprintf("measured params: ls=%.3f msdat=%.4f mains=%.4f md=%.3f shd=%.3f wr=%.3f apl=%.1f oclean=%.3f opres=%.3f nshd=%.2f",
			m.Params.LS, m.Params.MsDat, m.Params.MsIns, m.Params.MD, m.Params.Shd, m.Params.WR, m.Params.APL, m.Params.OClean, m.Params.OPres, m.Params.NShd),
		"the exponential-service bus model slightly overestimates contention vs the fixed-service simulator, as in the paper")
	return ds, nil
}

func runFig2(ctx context.Context, opt Options) (*Dataset, error) {
	gen, preset, err := validationConfig(opt, "pops")
	if err != nil {
		return nil, err
	}
	memo, src := memoFrom(ctx), newTraceSource(gen)
	ds := &Dataset{
		ID:     "fig2",
		Title:  fmt.Sprintf("Dragon model vs simulation across cache sizes, %q trace", preset),
		XLabel: "processors",
		YLabel: "processing power",
	}
	for _, size := range []int{16 * 1024, 64 * 1024, 256 * 1024} {
		cache := sim.CacheConfig{Size: size, BlockSize: 16, Assoc: 2}
		series, _, err := validate(memo, src, cache, []protoScheme{{sim.ProtoDragon, core.Dragon{}}})
		if err != nil {
			return nil, err
		}
		for i := range series {
			series[i].Name = fmt.Sprintf("%dK %s", size/1024, series[i].Name[len("Dragon "):])
		}
		ds.Series = append(ds.Series, series...)
	}
	ds.Table = seriesTable(ds.Series)
	return ds, nil
}

func runFig3(ctx context.Context, opt Options) (*Dataset, error) {
	gen, preset, err := validationConfig(opt, "pero8")
	if err != nil {
		return nil, err
	}
	memo, src := memoFrom(ctx), newTraceSource(gen)
	ds := &Dataset{
		ID:     "fig3",
		Title:  fmt.Sprintf("Dragon model vs simulation, 8-processor %q trace", preset),
		XLabel: "processors",
		YLabel: "processing power",
	}
	for _, size := range []int{16 * 1024, 64 * 1024, 256 * 1024} {
		cache := sim.CacheConfig{Size: size, BlockSize: 16, Assoc: 2}
		series, _, err := validate(memo, src, cache, []protoScheme{{sim.ProtoDragon, core.Dragon{}}})
		if err != nil {
			return nil, err
		}
		for i := range series {
			series[i].Name = fmt.Sprintf("%dK %s", size/1024, series[i].Name[len("Dragon "):])
		}
		ds.Series = append(ds.Series, series...)
	}
	ds.Table = seriesTable(ds.Series)
	return ds, nil
}
