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
	register(Spec{ID: "fig10", Paper: "Figure 10", Title: "Buses versus networks in the small scale", Run: runFig10})
	register(Spec{ID: "fig11", Paper: "Figure 11", Title: "256-processor network utilization vs request rate", Run: runFig11})
	register(Spec{ID: "packet", Paper: "Extension (Sec. 7)", Title: "Packet-switched network vs circuit-switched", Run: runPacket})
	register(Spec{ID: "directory", Paper: "Extension (Sec. 6.3)", Title: "Directory scheme vs Software-Flush on a network", Run: runDirectory})
}

func runFig10(ctx context.Context, opt Options) (*Dataset, error) {
	maxStages := 6 // up to 64 processors
	maxProcs := opt.maxProcs(64)
	ds := &Dataset{
		ID:     "fig10",
		Title:  "Processing power: bus vs circuit-switched network, middle parameters",
		XLabel: "processors",
		YLabel: "processing power",
	}
	p := core.MiddleParams()
	schemes := []core.Scheme{core.Base{}, core.SoftwareFlush{}, core.NoCache{}}
	// Per-scheme bus and network curves solve in parallel into per-scheme
	// slots; the bus side goes through the shared cache, so the table
	// below reuses the same curves instead of re-solving.
	busSeries := make([]plot.Series, len(schemes))
	netSeries := make([]plot.Series, len(schemes))
	netPoints := make([][]core.NetworkPoint, len(schemes))
	if err := sweep.EachCtx(ctx, 0, len(schemes), func(i int) error {
		s := schemes[i]
		sr, err := busPowerSeries(ctx, s, p, maxProcs)
		if err != nil {
			return err
		}
		sr.Name = s.Name() + " (bus)"
		busSeries[i] = sr
		pts, err := core.EvaluateNetwork(s, p, maxStages)
		if err != nil {
			return err
		}
		netPoints[i] = pts
		nr := plot.Series{Name: s.Name() + " (net)"}
		for _, pt := range pts {
			if pt.Processors > maxProcs {
				break
			}
			nr.X = append(nr.X, float64(pt.Processors))
			nr.Y = append(nr.Y, pt.Power)
		}
		netSeries[i] = nr
		return nil
	}); err != nil {
		return nil, err
	}
	ds.Series = append(ds.Series, busSeries...)
	ds.Series = append(ds.Series, netSeries...)
	tab := &report.Table{Header: []string{"processors", "scheme", "bus power", "net power"}}
	for i, s := range schemes {
		busPts, err := busEval.EvaluateBusCtx(ctx, s, p, core.BusCosts(), maxProcs, nil)
		if err != nil {
			return nil, err
		}
		for _, np := range netPoints[i] {
			if np.Processors > maxProcs {
				break
			}
			tab.AddRow(fmt.Sprint(np.Processors), s.Name(),
				report.FormatFloat(round3(busPts[np.Processors-1].Power)),
				report.FormatFloat(round3(np.Power)))
		}
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"the bus wins at small scale (no path-setup cost); the network wins once the bus saturates",
		"Software-Flush and No-Cache both scale on the network, Software-Flush more efficiently")
	return ds, nil
}

func runFig11(context.Context, Options) (*Dataset, error) {
	const stages = 8 // 256 processors
	ds := &Dataset{
		ID:     "fig11",
		Title:  "Patel processor utilization, 256-processor circuit-switched network",
		XLabel: "unit request rate per processor (transactions/cycle)",
		YLabel: "processor utilization",
	}
	for _, msg := range []float64{1, 2, 4, 8, 16} {
		sr := plot.Series{Name: fmt.Sprintf("msg=%g words", msg)}
		for rate := 0.0; rate <= 0.30001; rate += 0.01 {
			u, err := core.NetworkUtilization(stages, rate, msg)
			if err != nil {
				return nil, err
			}
			sr.X = append(sr.X, rate)
			sr.Y = append(sr.Y, u)
		}
		ds.Series = append(ds.Series, sr)
	}
	// The nine marked points: scheme x level.
	tab := &report.Table{Header: []string{"point", "scheme", "range", "rate", "msg words", "utilization"}}
	type combo struct {
		label  string
		scheme core.Scheme
		level  core.Level
	}
	combos := []combo{
		{"Bl", core.Base{}, core.Low}, {"Bm", core.Base{}, core.Mid}, {"Bh", core.Base{}, core.High},
		{"Sl", core.SoftwareFlush{}, core.Low}, {"Sm", core.SoftwareFlush{}, core.Mid}, {"Sh", core.SoftwareFlush{}, core.High},
		{"Nl", core.NoCache{}, core.Low}, {"Nm", core.NoCache{}, core.Mid}, {"Nh", core.NoCache{}, core.High},
	}
	for _, c := range combos {
		rate, msg, u, err := core.NetworkWorkloadPoint(c.scheme, c.level, stages)
		if err != nil {
			return nil, err
		}
		ds.Series = append(ds.Series, plot.Series{
			Name: c.label, X: []float64{rate}, Y: []float64{u},
		})
		tab.AddRow(c.label, c.scheme.Name(), c.level.String(),
			fmt.Sprintf("%.4f", rate), fmt.Sprintf("%.2f", msg), fmt.Sprintf("%.3f", u))
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes,
		"paper anchor: 3% transaction rate at 4-word messages (unit rate 3%x(16+4)=60%) roughly halves utilization",
		"two performance classes: {B*, Sl, Sm, Nl} reasonable; {Sh, Nm, Nh} much poorer")
	return ds, nil
}

func runPacket(context.Context, Options) (*Dataset, error) {
	ds := &Dataset{
		ID:     "packet",
		Title:  "EXTENSION: packet switching vs circuit switching (256 processors, middle parameters)",
		XLabel: "stages",
		YLabel: "processing power",
	}
	p := core.MiddleParams()
	tab := &report.Table{Header: []string{"scheme", "circuit power", "packet power", "packet/circuit"}}
	schemes := []core.Scheme{core.Base{}, core.SoftwareFlush{}, core.NoCache{}}
	circuit := plot.Series{Name: "circuit (SF)"}
	packet := plot.Series{Name: "packet (SF)"}
	for stages := 2; stages <= 10; stages++ {
		c, err := core.EvaluateNetworkAt(core.SoftwareFlush{}, p, stages)
		if err != nil {
			return nil, err
		}
		pk, err := core.EvaluatePacketNetwork(core.SoftwareFlush{}, p, stages)
		if err != nil {
			return nil, err
		}
		circuit.X = append(circuit.X, float64(stages))
		circuit.Y = append(circuit.Y, c.Power)
		packet.X = append(packet.X, float64(stages))
		packet.Y = append(packet.Y, pk.Power)
	}
	ds.Series = []plot.Series{circuit, packet}
	for _, s := range schemes {
		c, err := core.EvaluateNetworkAt(s, p, 8)
		if err != nil {
			return nil, err
		}
		pk, err := core.EvaluatePacketNetwork(s, p, 8)
		if err != nil {
			return nil, err
		}
		tab.AddRow(s.Name(), report.FormatFloat(round3(c.Power)), report.FormatFloat(round3(pk.Power)),
			fmt.Sprintf("%.2f", pk.Power/c.Power))
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes, "paper Section 7: 'Use of packet-switching would be more favorable to No-Cache' — its ratio improves most")
	return ds, nil
}

func runDirectory(context.Context, Options) (*Dataset, error) {
	ds := &Dataset{
		ID:     "directory",
		Title:  "EXTENSION: directory hardware vs software schemes on the 256-processor network",
		XLabel: "stages",
		YLabel: "processing power",
	}
	tab := &report.Table{Header: []string{"scheme", "range", "power (256 procs)", "utilization"}}
	for _, s := range []core.Scheme{core.Base{}, core.Directory{}, core.SoftwareFlush{}, core.NoCache{}} {
		for _, l := range core.Levels() {
			pt, err := core.EvaluateNetworkAt(s, core.ParamsAt(l), 8)
			if err != nil {
				return nil, err
			}
			tab.AddRow(s.Name(), l.String(), report.FormatFloat(round3(pt.Power)), fmt.Sprintf("%.3f", pt.Utilization))
		}
	}
	ds.Table = tab
	ds.Notes = append(ds.Notes, "paper Section 6.3: Software-Flush at low range 'approximates the performance of hardware-based directory schemes'")
	// Chart: power vs stages for directory and SF at low range.
	for _, s := range []core.Scheme{core.Directory{}, core.SoftwareFlush{}} {
		sr := plot.Series{Name: s.Name() + " (low)"}
		pts, err := core.EvaluateNetwork(s, core.ParamsAt(core.Low), 10)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			sr.X = append(sr.X, float64(pt.Stages))
			sr.Y = append(sr.Y, pt.Power)
		}
		ds.Series = append(ds.Series, sr)
	}
	return ds, nil
}
