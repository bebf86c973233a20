package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/report"
	"swcc/internal/sensitivity"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{ID: "table1", Paper: "Table 1", Title: "System model: CPU and bus time per operation", Run: runTable1})
	register(Spec{ID: "table2", Paper: "Table 2", Title: "Workload model parameters", Run: runTable2})
	register(Spec{ID: "table3", Paper: "Tables 3-6", Title: "Per-scheme operation frequencies at middle parameters", Run: runTable36})
	register(Spec{ID: "table7", Paper: "Table 7", Title: "Parameter ranges vs values measured from synthetic traces", Run: runTable7})
	register(Spec{ID: "table8", Paper: "Table 8", Title: "Sensitivity: % execution-time change, parameter low→high", Run: runTable8})
	register(Spec{ID: "table9", Paper: "Table 9", Title: "System model for a multistage network", Run: runTable9})
}

func runTable1(context.Context, Options) (*Dataset, error) {
	costs := core.BusCosts()
	tab := &report.Table{Header: []string{"operation", "cpu time", "bus time"}}
	for _, op := range core.Ops() {
		c := costs.Cost(op)
		tab.AddRow(op.String(), report.FormatFloat(c.CPU), report.FormatFloat(c.Interconnect))
	}
	return &Dataset{
		ID:    "table1",
		Title: "System model (bus): cycle costs per hardware operation",
		Table: tab,
	}, nil
}

func runTable2(context.Context, Options) (*Dataset, error) {
	tab := &report.Table{Header: []string{"parameter", "description"}}
	for _, f := range core.Fields() {
		tab.AddRow(f.Name, f.Doc)
	}
	return &Dataset{ID: "table2", Title: "Workload model parameters", Table: tab}, nil
}

func runTable36(context.Context, Options) (*Dataset, error) {
	p := core.MiddleParams()
	tab := &report.Table{Header: []string{"operation", "Base", "No-Cache", "Software-Flush", "Dragon"}}
	schemes := []core.Scheme{core.Base{}, core.NoCache{}, core.SoftwareFlush{}, core.Dragon{}}
	freqs := make([]map[core.Op]float64, len(schemes))
	for i, s := range schemes {
		fr, err := s.Frequencies(p)
		if err != nil {
			return nil, err
		}
		freqs[i] = map[core.Op]float64{}
		for _, f := range fr.List() {
			freqs[i][f.Op] += f.Freq
		}
	}
	for _, op := range core.Ops() {
		row := []string{op.String()}
		any := false
		for i := range schemes {
			v := freqs[i][op]
			if v != 0 {
				any = true
			}
			row = append(row, fmt.Sprintf("%.6f", v))
		}
		if any {
			tab.AddRow(row...)
		}
	}
	ds := &Dataset{
		ID:    "table3",
		Title: "Workload models (Tables 3-6): operation frequencies per instruction, middle parameters",
		Table: tab,
	}
	for _, s := range schemes {
		d, err := core.ComputeDemand(s, p, core.BusCosts())
		if err != nil {
			return nil, err
		}
		ds.Notes = append(ds.Notes, fmt.Sprintf("%s: c = %.4f cpu cycles/instr, b = %.4f bus cycles/instr", s.Name(), d.CPU, d.Interconnect))
	}
	return ds, nil
}

func runTable7(ctx context.Context, opt Options) (*Dataset, error) {
	tab := &report.Table{Header: []string{"parameter", "low", "mid", "high", "pops", "thor", "pero"}}
	measured := map[string]core.Params{}
	memo := memoFrom(ctx)
	for _, preset := range []string{"pops", "thor", "pero"} {
		cfg, err := tracegen.Preset(preset)
		if err != nil {
			return nil, err
		}
		cfg.InstrPerCPU = int(float64(cfg.InstrPerCPU) * opt.traceScale())
		m, err := memo.extract(ctx, memo.source(cfg), sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2})
		if err != nil {
			return nil, err
		}
		measured[preset] = m.Params
	}
	for _, f := range core.Fields() {
		row := []string{f.Name, report.FormatFloat(f.Low), report.FormatFloat(f.Mid), report.FormatFloat(f.High)}
		for _, preset := range []string{"pops", "thor", "pero"} {
			p := measured[preset]
			row = append(row, fmt.Sprintf("%.4f", f.Get(&p)))
		}
		tab.AddRow(row...)
	}
	return &Dataset{
		ID:    "table7",
		Title: "Parameter ranges (paper Table 7) and values measured from the synthetic validation traces (64KB caches)",
		Table: tab,
		Notes: []string{"synthetic traces substitute for the unavailable ATUM-2 POPS/THOR/PERO traces; measured columns should fall within or near [low, high]"},
	}, nil
}

func runTable8(ctx context.Context, opt Options) (*Dataset, error) {
	nproc := opt.maxProcs(16)
	// Route the table through the package-shared cache AND the caller's
	// ctx: an interrupted `cohere all` abandons the sensitivity grid too.
	tab8, err := sensitivity.AnalyzeWithCtx(ctx, &sweep.Engine{Cache: busEval}, core.PaperSchemes(), nproc)
	if err != nil {
		return nil, err
	}
	tab := &report.Table{Header: append([]string{"parameter"}, tab8.Schemes...)}
	for _, p := range tab8.Params {
		row := []string{p}
		for _, s := range tab8.Schemes {
			c, _ := tab8.Cell(p, s)
			row = append(row, fmt.Sprintf("%+.1f%%", c.PercentChange))
		}
		tab.AddRow(row...)
	}
	return &Dataset{
		ID:    "table8",
		Title: fmt.Sprintf("Sensitivity to parameter variation (low→high, others middle) at %d processors", nproc),
		Table: tab,
		Notes: []string{
			"paper's reading: apl dominates Software-Flush, shd almost as much, ls significant;",
			"No-Cache mirrors Software-Flush minus apl; Dragon cares more about miss rate than sharing",
		},
	}, nil
}

func runTable9(context.Context, Options) (*Dataset, error) {
	tab := &report.Table{Header: []string{"operation", "cpu time (n=8)", "network time (n=8)", "formula"}}
	costs := core.NetworkCosts(8)
	formulas := map[core.Op]string{
		core.OpInstr:        "1 / 0",
		core.OpCleanMissMem: "9+2n / 6+2n",
		core.OpDirtyMissMem: "12+2n / 9+2n",
		core.OpCleanFlush:   "1 / 0",
		core.OpDirtyFlush:   "7+2n / 5+2n",
		core.OpWriteThrough: "3+2n / 2+2n",
		core.OpReadThrough:  "4+2n / 3+2n",
	}
	for _, op := range core.Ops() {
		if !costs.Defines(op) {
			continue
		}
		c := costs.Cost(op)
		tab.AddRow(op.String(), report.FormatFloat(c.CPU), report.FormatFloat(c.Interconnect), formulas[op])
	}
	return &Dataset{
		ID:    "table9",
		Title: "System model for an n-stage circuit-switched multistage network",
		Table: tab,
	}, nil
}
