package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sweep"
)

func init() {
	register(Spec{ID: "fig4", Paper: "Figure 4", Title: "Scheme comparison on a bus, low ls and shd", Run: busLevels(core.Low)})
	register(Spec{ID: "fig5", Paper: "Figure 5", Title: "Scheme comparison on a bus, medium ls and shd", Run: busLevels(core.Mid)})
	register(Spec{ID: "fig6", Paper: "Figure 6", Title: "Scheme comparison on a bus, high ls and shd", Run: busLevels(core.High)})
	register(Spec{ID: "fig7", Paper: "Figure 7", Title: "Software-Flush under varying apl", Run: runFig7})
	register(Spec{ID: "fig8", Paper: "Figure 8", Title: "Processing power vs apl, low sharing", Run: aplSweep("fig8", core.Low)})
	register(Spec{ID: "fig9", Paper: "Figure 9", Title: "Processing power vs apl, medium sharing", Run: aplSweep("fig9", core.Mid)})
}

// busPowerSeries evaluates one scheme's power curve over 1..maxProcs,
// through the shared memo cache.
func busPowerSeries(ctx context.Context, s core.Scheme, p core.Params, maxProcs int) (plot.Series, error) {
	pts, err := busEval.EvaluateBusCtx(ctx, s, p, core.BusCosts(), maxProcs, nil)
	if err != nil {
		return plot.Series{}, err
	}
	out := plot.Series{Name: s.Name()}
	for _, pt := range pts {
		out.X = append(out.X, float64(pt.Processors))
		out.Y = append(out.Y, pt.Power)
	}
	return out, nil
}

// idealSeries is the dotted upper bound: power = n.
func idealSeries(maxProcs int) plot.Series {
	s := plot.Series{Name: "Ideal (n)"}
	for n := 1; n <= maxProcs; n++ {
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, float64(n))
	}
	return s
}

// busLevels builds the Figures 4-6 runner: all four schemes at the given
// ls/shd level, everything else middle.
func busLevels(l core.Level) func(context.Context, Options) (*Dataset, error) {
	return func(ctx context.Context, opt Options) (*Dataset, error) {
		maxProcs := opt.maxProcs(16)
		p := core.MiddleParams()
		var err error
		if p, err = p.WithLevel("ls", l); err != nil {
			return nil, err
		}
		if p, err = p.WithLevel("shd", l); err != nil {
			return nil, err
		}
		id := map[core.Level]string{core.Low: "fig4", core.Mid: "fig5", core.High: "fig6"}[l]
		ds := &Dataset{
			ID:     id,
			Title:  fmt.Sprintf("Processing power vs processors, %s ls/shd (bus)", l),
			XLabel: "processors",
			YLabel: "processing power",
		}
		ds.Series = append(ds.Series, idealSeries(maxProcs))
		tab := &report.Table{Header: []string{"processors", "Base", "Dragon", "Software-Flush", "No-Cache"}}
		// One curve per scheme, solved in parallel into per-scheme slots.
		schemes := core.PaperSchemes()
		curves := make([]plot.Series, len(schemes))
		if err := sweep.EachCtx(ctx, 0, len(schemes), func(i int) error {
			var err error
			curves[i], err = busPowerSeries(ctx, schemes[i], p, maxProcs)
			return err
		}); err != nil {
			return nil, err
		}
		ds.Series = append(ds.Series, curves...)
		for i := 0; i < maxProcs; i++ {
			tab.AddFloats(fmt.Sprint(i+1),
				round3(curves[0].Y[i]), round3(curves[1].Y[i]), round3(curves[2].Y[i]), round3(curves[3].Y[i]))
		}
		ds.Table = tab
		return ds, nil
	}
}

func runFig7(ctx context.Context, opt Options) (*Dataset, error) {
	maxProcs := opt.maxProcs(16)
	ds := &Dataset{
		ID:     "fig7",
		Title:  "Software-Flush processing power for several apl values (bus, middle parameters)",
		XLabel: "processors",
		YLabel: "processing power",
	}
	mid := core.MiddleParams()
	// Reference curves (Dragon above, No-Cache below) plus one
	// Software-Flush curve per apl value, all solved in parallel into
	// per-curve slots so the series order never depends on scheduling.
	type job struct {
		scheme core.Scheme
		params core.Params
		rename string
	}
	jobs := []job{
		{scheme: core.Dragon{}, params: mid},
		{scheme: core.NoCache{}, params: mid},
	}
	for _, apl := range []float64{1, 2, 4, 8, 25, 100} {
		p, err := mid.With("apl", apl)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{core.SoftwareFlush{}, p, fmt.Sprintf("SF apl=%g", apl)})
	}
	curves := make([]plot.Series, len(jobs))
	if err := sweep.EachCtx(ctx, 0, len(jobs), func(i int) error {
		sr, err := busPowerSeries(ctx, jobs[i].scheme, jobs[i].params, maxProcs)
		if err != nil {
			return err
		}
		if jobs[i].rename != "" {
			sr.Name = jobs[i].rename
		}
		curves[i] = sr
		return nil
	}); err != nil {
		return nil, err
	}
	ds.Series = append(ds.Series, curves...)
	ds.Notes = append(ds.Notes,
		"apl=1 falls below No-Cache (every shared reference flushes and re-misses);",
		"large apl approaches and can exceed Dragon")
	return ds, nil
}

// aplSweep builds Figures 8-9: power as a function of apl at a fixed
// sharing level, for a few machine sizes.
func aplSweep(id string, shdLevel core.Level) func(context.Context, Options) (*Dataset, error) {
	return func(ctx context.Context, opt Options) (*Dataset, error) {
		base := core.MiddleParams()
		var err error
		if base, err = base.WithLevel("shd", shdLevel); err != nil {
			return nil, err
		}
		ds := &Dataset{
			ID:     id,
			Title:  fmt.Sprintf("Software-Flush power vs apl, %s sharing (bus)", shdLevel),
			XLabel: "apl (references per flush, log scale)",
			YLabel: "processing power",
			LogX:   true,
		}
		tab := &report.Table{Header: []string{"apl", "4 procs", "8 procs", "16 procs"}}
		sizes := []int{4, 8, 16}
		series := make([]plot.Series, len(sizes))
		for i, n := range sizes {
			series[i].Name = fmt.Sprintf("%d processors", n)
		}
		// The full apl x size grid is one engine call: the cells solve on
		// the worker pool (sharing the package cache) and come back in
		// input order, so the series fill exactly as the nested loop did.
		apls := []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
		points := make([]sweep.Point, 0, len(apls)*len(sizes))
		for _, apl := range apls {
			p, err := base.With("apl", apl)
			if err != nil {
				return nil, err
			}
			for _, n := range sizes {
				points = append(points, sweep.Point{Scheme: core.SoftwareFlush{}, Params: p, NProc: n})
			}
		}
		eng := &sweep.Engine{Cache: busEval}
		results := eng.EvaluateBusCtx(ctx, points, core.BusCosts())
		if err := sweep.FirstError(results); err != nil {
			return nil, err
		}
		for j, apl := range apls {
			row := []float64{}
			for i := range sizes {
				pw := results[j*len(sizes)+i].Bus.Power
				series[i].X = append(series[i].X, apl)
				series[i].Y = append(series[i].Y, pw)
				row = append(row, round3(pw))
			}
			tab.AddFloats(report.FormatFloat(apl), row...)
		}
		ds.Series = series
		ds.Table = tab
		if shdLevel == core.Low {
			ds.Notes = append(ds.Notes, "low sharing: performance is sensitive to apl only at small apl, then quickly saturates")
		} else {
			ds.Notes = append(ds.Notes, "medium sharing: performance stays sensitive to apl even at relatively high values")
		}
		return ds, nil
	}
}

func round3(v float64) float64 {
	return float64(int(v*1000+0.5)) / 1000
}
