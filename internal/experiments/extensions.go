package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/netsim"
	"swcc/internal/plot"
	"swcc/internal/queueing"
	"swcc/internal/report"
	"swcc/internal/sweep"
)

func init() {
	register(Spec{ID: "hybrid", Paper: "Extension (Sec. 2.2.3)", Title: "Elxsi/MultiTitan-style hybrid: uncached locks + flushed shared data", Run: runHybrid})
	register(Spec{ID: "netmva", Paper: "Extension (footnote 2)", Title: "Network contention: Patel fixed point vs load-dependent MVA", Run: runNetMVA})
	register(Spec{ID: "crossover", Paper: "Extension (Sec. 5.3)", Title: "apl needed for Software-Flush to match Dragon / No-Cache", Run: runCrossover})
	register(Spec{ID: "patel", Paper: "Extension (Sec. 6.2 gap)", Title: "Patel network model validated against cycle-level simulation", Run: runPatelValidation})
	register(Spec{ID: "packetsim", Paper: "Extension (Sec. 7)", Title: "Packet-switched model validated against cycle-level simulation", Run: runPacketValidation})
}

func runPacketValidation(ctx context.Context, opt Options) (*Dataset, error) {
	const stages = 6
	cycles := int(250_000 * opt.traceScale())
	if cycles < 20_000 {
		cycles = 20_000
	}
	ds := &Dataset{
		ID:     "packetsim",
		Title:  "Buffered packet-switched network: M/M/1-per-stage model vs cycle-level simulation (64 ports, 4-packet messages)",
		XLabel: "transaction rate per processor (1/think)",
		YLabel: "one-way latency (cycles)",
	}
	simSeries := plot.Series{Name: "sim latency"}
	modelSeries := plot.Series{Name: "model latency"}
	tab := &report.Table{Header: []string{"think", "sim latency", "model latency", "sim thinking frac"}}
	bn := queueing.BufferedNetwork{Stages: stages}
	for _, think := range []float64{400, 200, 100, 60, 40, 25} {
		sim, err := netsim.RunBuffered(netsim.BufferedConfig{
			Stages: stages, Think: think, Packets: 4,
			Cycles: cycles, WarmupCycles: cycles / 10, Seed: 0xBEEF,
		})
		if err != nil {
			return nil, err
		}
		model, err := bn.SolveBuffered(think+4, 1/think, 4)
		if err != nil {
			return nil, err
		}
		rate := 1 / think
		simSeries.X = append(simSeries.X, rate)
		simSeries.Y = append(simSeries.Y, sim.MeanLatency)
		modelSeries.X = append(modelSeries.X, rate)
		modelSeries.Y = append(modelSeries.Y, model.Latency)
		tab.AddRow(report.FormatFloat(think),
			fmt.Sprintf("%.2f", sim.MeanLatency), fmt.Sprintf("%.2f", model.Latency),
			fmt.Sprintf("%.3f", sim.ThinkingFraction))
	}
	ds.Series = []plot.Series{simSeries, modelSeries}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"validates the Section 7 packet-switching extension the way the `patel` experiment validates the circuit model; the coarser M/M/1 approximation tracks within ~20%")
	return ds, nil
}

func runPatelValidation(ctx context.Context, opt Options) (*Dataset, error) {
	const stages = 6 // 64 processors
	cycles := int(300_000 * opt.traceScale())
	if cycles < 20_000 {
		cycles = 20_000
	}
	ds := &Dataset{
		ID:     "patel",
		Title:  "Patel fixed point vs cycle-level circuit-switched simulation (64 processors, 16-cycle circuits)",
		XLabel: "transaction rate per processor (1/think)",
		YLabel: "processor utilization",
	}
	simSeries := plot.Series{Name: "simulation"}
	modelSeries := plot.Series{Name: "Patel model"}
	tab := &report.Table{Header: []string{"think", "rate", "sim U", "±95% CI", "model U", "sim acceptance"}}
	pn := queueing.NewPatelNetwork(stages)
	for _, think := range []float64{500, 250, 120, 60, 30, 15} {
		sim, err := netsim.Run(netsim.Config{
			Stages: stages, Think: think, Hold: 16,
			Cycles: cycles, WarmupCycles: cycles / 10, Seed: 0xA5,
		})
		if err != nil {
			return nil, err
		}
		model, err := pn.SolvePatel(1/think, 16)
		if err != nil {
			return nil, err
		}
		rate := 1 / think
		simSeries.X = append(simSeries.X, rate)
		simSeries.Y = append(simSeries.Y, sim.Utilization)
		modelSeries.X = append(modelSeries.X, rate)
		modelSeries.Y = append(modelSeries.Y, model.Utilization)
		tab.AddRow(report.FormatFloat(think), fmt.Sprintf("%.4f", rate),
			fmt.Sprintf("%.3f", sim.Utilization), fmt.Sprintf("%.4f", sim.UtilizationCI95),
			fmt.Sprintf("%.3f", model.Utilization), fmt.Sprintf("%.3f", sim.Acceptance))
	}
	ds.Series = []plot.Series{simSeries, modelSeries}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		`the paper: "We are not aware of any validation of this model against multiprocessor traces" — this experiment supplies the synthetic-workload validation`)
	return ds, nil
}

func runHybrid(ctx context.Context, opt Options) (*Dataset, error) {
	nproc := opt.maxProcs(16)
	ds := &Dataset{
		ID:     "hybrid",
		Title:  fmt.Sprintf("Hybrid coherence (No-Cache locks + Software-Flush data), %d-processor bus", nproc),
		XLabel: "lock fraction of shared references",
		YLabel: "processing power",
	}
	p := core.MiddleParams()
	tab := &report.Table{Header: []string{"lock frac", "power", "vs all-flush", "vs all-nocache"}}
	sf, err := busEval.BusPower(core.SoftwareFlush{}, p, core.BusCosts(), nproc)
	if err != nil {
		return nil, err
	}
	nc, err := busEval.BusPower(core.NoCache{}, p, core.BusCosts(), nproc)
	if err != nil {
		return nil, err
	}
	sr := plot.Series{Name: "Hybrid"}
	for lf := 0.0; lf <= 1.0001; lf += 0.1 {
		pw, err := busEval.BusPower(core.Hybrid{LockFrac: lf}, p, core.BusCosts(), nproc)
		if err != nil {
			return nil, err
		}
		sr.X = append(sr.X, lf)
		sr.Y = append(sr.Y, pw)
		tab.AddRow(fmt.Sprintf("%.1f", lf), fmt.Sprintf("%.3f", pw),
			fmt.Sprintf("%+.1f%%", 100*(pw-sf)/sf), fmt.Sprintf("%+.1f%%", 100*(pw-nc)/nc))
	}
	ds.Series = []plot.Series{sr}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"lock=0 is pure Software-Flush, lock=1 pure No-Cache (the MultiTitan keeps locks uncached because flushing a lock buys apl~1)")
	return ds, nil
}

func runNetMVA(context.Context, Options) (*Dataset, error) {
	ds := &Dataset{
		ID:     "netmva",
		Title:  "Two network contention models (256 processors): retrying circuit switch (Patel) vs queued load-dependent server (MVA)",
		XLabel: "workload range",
		YLabel: "processing power",
	}
	tab := &report.Table{Header: []string{"scheme", "range", "Patel power", "MVA power", "ratio"}}
	for _, s := range []core.Scheme{core.Base{}, core.SoftwareFlush{}, core.NoCache{}} {
		for _, l := range core.Levels() {
			p := core.ParamsAt(l)
			patel, err := core.EvaluateNetworkAt(s, p, 8)
			if err != nil {
				return nil, err
			}
			mva, err := core.EvaluateNetworkMVA(s, p, 8)
			if err != nil {
				return nil, err
			}
			tab.AddRow(s.Name(), l.String(),
				report.FormatFloat(round3(patel.Power)), report.FormatFloat(round3(mva.Power)),
				fmt.Sprintf("%.2f", mva.Power/patel.Power))
		}
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"the paper's footnote 2 sketches the load-dependent-server formulation; queueing blocked requests instead of dropping and retrying them is mildly more optimistic, but the two models share light-load and saturation behavior")
	return ds, nil
}

func runCrossover(ctx context.Context, opt Options) (*Dataset, error) {
	nproc := opt.maxProcs(16)
	ds := &Dataset{
		ID:    "crossover",
		Title: fmt.Sprintf("apl Software-Flush needs to match its competitors (%d-processor bus)", nproc),
	}
	tab := &report.Table{Header: []string{"shd", "apl to match No-Cache", "apl to match Dragon"}}
	// Each shd row runs two bisections; the rows are independent, so they
	// run in parallel, each routed through the shared cache (the Dragon
	// and No-Cache target powers recur across all rows and solve once).
	shds := []float64{0.08, 0.15, 0.25, 0.35, 0.42}
	rows := make([][3]string, len(shds))
	if err := sweep.EachCtx(ctx, 0, len(shds), func(i int) error {
		shd := shds[i]
		p, err := core.MiddleParams().With("shd", shd)
		if err != nil {
			return err
		}
		fmtApl := func(target core.Scheme) (string, error) {
			apl, found, err := core.APLToMatchWith(busEval, target, p, core.BusCosts(), nproc)
			if err != nil {
				return "", err
			}
			if !found {
				return "never", nil
			}
			return fmt.Sprintf("%.1f", apl), nil
		}
		vsNC, err := fmtApl(core.NoCache{})
		if err != nil {
			return err
		}
		vsDragon, err := fmtApl(core.Dragon{})
		if err != nil {
			return err
		}
		rows[i] = [3]string{fmt.Sprintf("%.2f", shd), vsNC, vsDragon}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, r := range rows {
		tab.AddRow(r[0], r[1], r[2])
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"the paper's closing worry quantified: migratory data yields apl~2 regardless of compiler quality — compare that against the Dragon column")
	return ds, nil
}
