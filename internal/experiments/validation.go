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

// validationBlock is the validation figures' cache block size in bytes.
const validationBlock = 16

// validationCache is the validation figures' cache geometry at the
// given size.
func validationCache(size int) sim.CacheConfig {
	return sim.CacheConfig{Size: size, BlockSize: validationBlock, Assoc: 2}
}

// validation is one cache size's model-vs-simulation comparison: a
// (simulated, modeled) power series per scheme over machine sizes
// 1..NCPU, and the parameter measurement the model was fed.
type validation struct {
	series []plot.Series
	m      *measure.Measurement
}

// validate runs model-vs-simulation for the given protocols, each
// against its analytic scheme, at each cache size across machine sizes
// 1..NCPU on src's trace. A done ctx stops it before the next
// simulation starts.
func validate(ctx context.Context, memo *runMemo, src *traceSource, sizes []int, protos []sim.Protocol) ([]validation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The simulations dominate the cost and are independent across
	// cache size, scheme and machine size: one grid on all cores runs
	// every measurement's shadows, every (size, protocol, n) simulation and
	// the stream pass into the memo. Largest machines go first so the
	// longest runs start early; the stream pass, one light pass over
	// the records, goes last beside the smallest. Reading the results
	// back below is then all memo hits.
	nsizes := src.gen.NCPU
	var runs []sim.Config
	seen := map[sim.Config]bool{}
	add := func(cfg sim.Config) {
		if !seen[cfg] {
			seen[cfg] = true
			runs = append(runs, cfg)
		}
	}
	for n := nsizes; n >= 1; n-- {
		for _, size := range sizes {
			cache := validationCache(size)
			if n == nsizes {
				for _, cfg := range shadowConfigs(src, cache) {
					add(cfg)
				}
			}
			for _, proto := range protos {
				add(sim.Config{NCPU: n, Cache: cache, Protocol: proto})
			}
		}
	}
	if err := sweep.EachCtx(ctx, 0, len(runs)+1, func(i int) error {
		if i == len(runs) {
			_, err := memo.stream(src, validationBlock)
			return err
		}
		_, err := memo.simulate(src, runs[i])
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]validation, len(sizes))
	for si, size := range sizes {
		cache := validationCache(size)
		m, err := memo.extract(ctx, src, cache)
		if err != nil {
			return nil, err
		}
		out[si].m = m
		for _, proto := range protos {
			scheme := proto.Scheme()
			simSeries := plot.Series{Name: scheme.Name() + " sim"}
			modelSeries := plot.Series{Name: scheme.Name() + " model"}
			modelPts, err := busEval.EvaluateBusCtx(ctx, scheme, m.Params, core.BusCosts(), nsizes, nil)
			if err != nil {
				return nil, err
			}
			for n := 1; n <= nsizes; n++ {
				res, err := memo.simulate(src, sim.Config{NCPU: n, Cache: cache, Protocol: proto})
				if err != nil {
					return nil, err
				}
				simSeries.X = append(simSeries.X, float64(n))
				simSeries.Y = append(simSeries.Y, res.Power())
				modelSeries.X = append(modelSeries.X, float64(n))
				modelSeries.Y = append(modelSeries.Y, modelPts[n-1].Power)
			}
			out[si].series = append(out[si].series, simSeries, modelSeries)
		}
	}
	return out, nil
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
	memo := memoFrom(ctx)
	v, err := validate(ctx, memo, memo.source(gen), []int{64 * 1024}, []sim.Protocol{sim.ProtoBase, sim.ProtoDragon})
	if err != nil {
		return nil, err
	}
	series, m := v[0].series, v[0].m
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
	return cacheSizeFigure(ctx, opt, "fig2", "pops", "Dragon model vs simulation across cache sizes, %q trace")
}

func runFig3(ctx context.Context, opt Options) (*Dataset, error) {
	return cacheSizeFigure(ctx, opt, "fig3", "pero8", "Dragon model vs simulation, 8-processor %q trace")
}

// cacheSizeFigure is Figures 2 and 3: Dragon model vs simulation at
// 16, 64 and 256 KB caches on the trace of opt.Preset (def if empty),
// all three sizes in one grid. title formats the preset's name.
func cacheSizeFigure(ctx context.Context, opt Options, id, def, title string) (*Dataset, error) {
	gen, preset, err := validationConfig(opt, def)
	if err != nil {
		return nil, err
	}
	memo := memoFrom(ctx)
	sizes := []int{16 * 1024, 64 * 1024, 256 * 1024}
	v, err := validate(ctx, memo, memo.source(gen), sizes, []sim.Protocol{sim.ProtoDragon})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		ID:     id,
		Title:  fmt.Sprintf(title, preset),
		XLabel: "processors",
		YLabel: "processing power",
	}
	for si, size := range sizes {
		for _, s := range v[si].series {
			s.Name = fmt.Sprintf("%dK %s", size/1024, s.Name[len("Dragon "):])
			ds.Series = append(ds.Series, s)
		}
	}
	ds.Table = seriesTable(ds.Series)
	return ds, nil
}
