package experiments

import (
	"context"
	"fmt"

	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{
		ID: "fig10sim", Paper: "Extension (Sec. 7 future work)",
		Title: "Figure 10 by simulation: bus vs network, trace-driven",
		Run:   runFig10Sim,
	})
}

// runFig10Sim replays one synthetic 16-processor workload through the
// trace-driven simulator on both interconnects, reproducing Figure 10's
// crossover by simulation — the network-side validation the paper lists
// as future work ("In the future we hope to ... validate our methodology
// against simulation" for networks).
func runFig10Sim(ctx context.Context, opt Options) (*Dataset, error) {
	cfg := tracegen.DefaultConfig()
	cfg.NCPU = 16
	cfg.InstrPerCPU = int(20_000 * opt.traceScale())
	if cfg.InstrPerCPU < 2000 {
		cfg.InstrPerCPU = 2000
	}
	memo := memoFrom(ctx)
	src := memo.source(cfg)
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}

	ds := &Dataset{
		ID:     "fig10sim",
		Title:  "Simulated processing power: bus vs circuit-switched network (middle-like workload)",
		XLabel: "processors",
		YLabel: "processing power",
	}
	tab := &report.Table{Header: []string{"processors", "protocol", "bus power", "net power"}}
	sizes := []int{2, 4, 8, 16}
	protos := []sim.Protocol{sim.ProtoSoftwareFlush, sim.ProtoNoCache}
	// Every (protocol, size, medium) simulation is independent: flatten
	// the grid into jobs, run them on all cores, and read the powers back
	// by index so series and table order match the old nested loops.
	media := []sim.Medium{sim.MediumBus, sim.MediumNetwork}
	type job struct {
		proto  sim.Protocol
		n      int
		medium sim.Medium
	}
	var jobs []job
	for _, proto := range protos {
		for _, n := range sizes {
			for _, m := range media {
				jobs = append(jobs, job{proto, n, m})
			}
		}
	}
	powers := make([]float64, len(jobs))
	if err := sweep.EachCtx(ctx, 0, len(jobs), func(i int) error {
		j := jobs[i]
		res, err := memo.simulate(src, sim.Config{NCPU: j.n, Cache: cache, Protocol: j.proto, Medium: j.medium})
		if err != nil {
			return err
		}
		powers[i] = res.Power()
		return nil
	}); err != nil {
		return nil, err
	}
	i := 0
	for _, proto := range protos {
		busSeries := plot.Series{Name: proto.String() + " (bus)"}
		netSeries := plot.Series{Name: proto.String() + " (net)"}
		for _, n := range sizes {
			busP, netP := powers[i], powers[i+1]
			i += 2
			busSeries.X = append(busSeries.X, float64(n))
			busSeries.Y = append(busSeries.Y, busP)
			netSeries.X = append(netSeries.X, float64(n))
			netSeries.Y = append(netSeries.Y, netP)
			tab.AddRow(fmt.Sprint(n), proto.String(),
				fmt.Sprintf("%.2f", busP), fmt.Sprintf("%.2f", netP))
		}
		ds.Series = append(ds.Series, busSeries, netSeries)
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"trace-driven counterpart of Figure 10: small machines favor the bus (no path-setup cost), large ones the network's parallel links",
		"the simulated network queues blocked transactions on links rather than dropping and retrying (see internal/netsim for the retry-faithful variant)")
	return ds, nil
}
