// Command cohere is the main CLI for the swcc library: it regenerates
// every table and figure of the paper, evaluates individual schemes, and
// sweeps workload parameters.
//
// Usage:
//
//	cohere list
//	cohere run <id> [-scale F] [-preset NAME] [-procs N] [-csv]
//	cohere all [-scale F] [-csv] [-parallel N]
//	cohere eval -scheme NAME [-procs N] [-level low|mid|high] [-set k=v ...]
//	cohere sweep -scheme NAME -param NAME -from F -to F [-steps N] [-procs N]
//
// `cohere all -parallel N` caps how many experiments run concurrently;
// the default 0 uses every core. At most one of them reads traces: the
// trace-driven experiments take turns, each spreading its simulations
// over every core, so one generated trace is in memory at a time.
// Output is identical at any setting — parallelism only changes
// wall-clock time.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"swcc/internal/core"
	"swcc/internal/experiments"
	"swcc/internal/report"
	"swcc/internal/sweep"
)

func main() {
	// SIGINT/SIGTERM cancel the context; the experiment runners and the
	// refine engine stop claiming grid cells at their next cancellation
	// point instead of finishing work nobody will read.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cohere:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "list":
		return cmdList(out)
	case "run", "figure", "table":
		return cmdRun(ctx, args[0], args[1:], out)
	case "all":
		return cmdAll(ctx, args[1:], out)
	case "eval":
		return cmdEval(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	case "refine":
		return cmdRefine(ctx, args[1:], out)
	case "advise":
		return cmdAdvise(args[1:], out)
	case "compare":
		return cmdCompare(args[1:], out)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cohere list                      list every reproducible table/figure
  cohere run <id>                  regenerate one artifact (e.g. fig4, table8)
  cohere figure <n>                shorthand for run fig<n>
  cohere table <n>                 shorthand for run table<n>
  cohere all                       regenerate everything
  cohere eval -scheme NAME         evaluate one scheme on the bus
  cohere sweep -scheme NAME -param NAME -from F -to F
                                   sweep a workload parameter
  cohere refine -schemes A,B -axis procs|PARAM -from F -to F
                                   locate best-scheme crossovers by
                                   adaptive subdivision
  cohere advise [-params FILE]     rank coherence schemes for a workload
                                   (-all ranks every registered scheme)
  cohere compare -a W1 -b W2       compare schemes across two workloads
                                   (level names or JSON files)

registered schemes: `+strings.Join(core.SchemeNames(), ", "))
}

func cmdList(out io.Writer) error {
	tab := &report.Table{Header: []string{"id", "paper", "title"}}
	for _, s := range experiments.All() {
		tab.AddRow(s.ID, s.Paper, s.Title)
	}
	return tab.WriteText(out)
}

// outputMode selects among text, CSV, and JSON rendering.
type outputMode struct {
	csv  *bool
	json *bool
}

func experimentFlags(fs *flag.FlagSet) (*float64, *string, *int, outputMode) {
	scale := fs.Float64("scale", 1.0, "validation trace length scale (0..1]")
	preset := fs.String("preset", "", "trace preset for validation figures (pops, thor, pero)")
	procs := fs.Int("procs", 0, "override maximum processor count")
	mode := outputMode{
		csv:  fs.Bool("csv", false, "emit the data table as CSV instead of text"),
		json: fs.Bool("json", false, "emit the full dataset as JSON"),
	}
	return scale, preset, procs, mode
}

func cmdRun(ctx context.Context, cmd string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	scale, preset, procs, mode := experimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s needs exactly one experiment id", cmd)
	}
	id := fs.Arg(0)
	switch cmd {
	case "figure":
		id = "fig" + id
	case "table":
		id = "table" + id
	}
	ds, err := experiments.RunCtx(ctx, id, experiments.Options{
		TraceScale: *scale, Preset: *preset, MaxProcessors: *procs,
	})
	if err != nil {
		return err
	}
	return emit(out, ds, mode)
}

func cmdAll(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	scale, preset, procs, mode := experimentFlags(fs)
	parallel := fs.Int("parallel", 0, "experiments to run concurrently, at most one of them trace-driven (0 = all cores)")
	outDir := fs.String("out", "", "write <id>.txt/.csv/.json per experiment into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	datasets, err := experiments.RunAllCtx(ctx, experiments.Options{
		TraceScale: *scale, Preset: *preset, MaxProcessors: *procs,
	}, *parallel)
	if err != nil {
		return err
	}
	if *outDir != "" {
		return writeArtifactDir(*outDir, datasets, out)
	}
	specs := experiments.All()
	for i, ds := range datasets {
		fmt.Fprintf(out, "==== %s (%s) ====\n", specs[i].ID, specs[i].Paper)
		if err := emit(out, ds, mode); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// writeArtifactDir writes every dataset's renderings into dir: the text
// form always, CSV when the dataset has a table, and JSON always.
func writeArtifactDir(dir string, datasets []*experiments.Dataset, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeFile := func(name string, fill func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for _, ds := range datasets {
		rendered, err := ds.Render()
		if err != nil {
			return fmt.Errorf("%s: %w", ds.ID, err)
		}
		if err := writeFile(ds.ID+".txt", func(w io.Writer) error {
			_, err := io.WriteString(w, rendered)
			return err
		}); err != nil {
			return err
		}
		if ds.Table != nil {
			if err := writeFile(ds.ID+".csv", ds.Table.WriteCSV); err != nil {
				return err
			}
		}
		if err := writeFile(ds.ID+".json", ds.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote %s\n", ds.ID)
	}
	return nil
}

func cmdAdvise(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	paramsFile := fs.String("params", "", "JSON workload file (paper parameter names; omitted fields default to middle)")
	level := fs.String("level", "mid", "base parameter level when no -params file is given")
	procs := fs.Int("procs", 16, "bus machine size")
	stages := fs.Int("stages", 0, "network stages (0 = shared bus)")
	all := fs.Bool("all", false, "rank every registered scheme, not just the advisor's default candidates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p core.Params
	if *paramsFile != "" {
		f, err := os.Open(*paramsFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if p, err = core.ReadParams(f); err != nil {
			return err
		}
	} else {
		var err error
		if p, err = paramsForLevel(*level); err != nil {
			return err
		}
	}
	// Default candidates come from the registry's Advise set; -all ranks
	// every registered scheme (the network model still skips bus-only
	// ones, which is reported below rather than treated as an error).
	var candidates []core.Scheme
	var infos []core.Info
	if *all {
		infos = core.RegisteredSchemes()
		for _, info := range infos {
			candidates = append(candidates, info.Scheme)
		}
	} else {
		candidates = core.DefaultCandidates()
	}
	var ranked []core.Ranking
	var err error
	var hw string
	if *stages == 0 {
		hw = fmt.Sprintf("%d-processor bus", *procs)
		// The ranking re-evaluates Base for every candidate's efficiency
		// figure; a caching evaluator solves it once.
		ranked, err = core.RankBusWith(sweep.NewEvaluator(), candidates, p, core.BusCosts(), *procs)
	} else {
		hw = fmt.Sprintf("%d-processor circuit-switched network", 1<<*stages)
		ranked, err = core.RankNetwork(candidates, p, *stages)
	}
	if err != nil {
		return err
	}
	if *all {
		// Every scheme the hardware supports must have produced a
		// ranking; a silent drop means a scheme's frequency table or
		// registration metadata is broken.
		present := map[string]bool{}
		for _, r := range ranked {
			present[r.Scheme.Name()] = true
		}
		var missing []string
		for _, info := range infos {
			if *stages > 0 && info.BusOnly {
				continue // the network model rejects these by design
			}
			if !present[info.Scheme.Name()] {
				missing = append(missing, info.Scheme.Name())
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("advise -all: registered scheme(s) missing from the ranking: %s",
				strings.Join(missing, ", "))
		}
	}
	fmt.Fprintf(out, "coherence schemes ranked for a %s:\n\n", hw)
	tab := &report.Table{Header: []string{"rank", "scheme", "power", "efficiency vs Base"}}
	for i, r := range ranked {
		tab.AddRow(fmt.Sprint(i+1), r.Scheme.Name(),
			fmt.Sprintf("%.2f", r.Power), fmt.Sprintf("%.1f%%", 100*r.Efficiency))
	}
	return tab.WriteText(out)
}

func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	aSpec := fs.String("a", "mid", "first workload: low/mid/high or a JSON file")
	bSpec := fs.String("b", "high", "second workload: low/mid/high or a JSON file")
	procs := fs.Int("procs", 16, "bus machine size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	load := func(spec string) (core.Params, error) {
		if p, err := paramsForLevel(spec); err == nil {
			return p, nil
		}
		f, err := os.Open(spec)
		if err != nil {
			return core.Params{}, fmt.Errorf("workload %q is neither a level nor a readable file: %w", spec, err)
		}
		defer f.Close()
		return core.ReadParams(f)
	}
	pa, err := load(*aSpec)
	if err != nil {
		return err
	}
	pb, err := load(*bSpec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "processing power at %d processors: %q vs %q\n\n", *procs, *aSpec, *bSpec)
	tab := &report.Table{Header: []string{"scheme", *aSpec, *bSpec, "change"}}
	for _, info := range core.RegisteredSchemes() {
		s := info.Scheme
		pwA, err := core.BusPower(s, pa, core.BusCosts(), *procs)
		if err != nil {
			return err
		}
		pwB, err := core.BusPower(s, pb, core.BusCosts(), *procs)
		if err != nil {
			return err
		}
		tab.AddRow(s.Name(),
			fmt.Sprintf("%.2f", pwA), fmt.Sprintf("%.2f", pwB),
			fmt.Sprintf("%+.1f%%", 100*(pwB-pwA)/pwA))
	}
	return tab.WriteText(out)
}

func emit(out io.Writer, ds *experiments.Dataset, mode outputMode) error {
	if mode.json != nil && *mode.json {
		return ds.WriteJSON(out)
	}
	if mode.csv != nil && *mode.csv {
		if ds.Table == nil {
			return fmt.Errorf("%s has no tabular data for CSV output", ds.ID)
		}
		return ds.Table.WriteCSV(out)
	}
	rendered, err := ds.Render()
	if err != nil {
		return err
	}
	fmt.Fprint(out, rendered)
	return nil
}

func cmdEval(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	schemeName := fs.String("scheme", "dragon",
		"scheme: "+strings.Join(core.SchemeNames(), ", ")+" (or any registered alias)")
	procs := fs.Int("procs", 16, "bus machine sizes to sweep")
	level := fs.String("level", "mid", "parameter level: low, mid, high")
	breakdown := fs.Bool("breakdown", false, "itemize the per-operation demand before the machine sweep")
	var sets multiFlag
	fs.Var(&sets, "set", "override one parameter, e.g. -set apl=4 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := core.SchemeByName(*schemeName)
	if err != nil {
		return err
	}
	p, err := paramsForLevel(*level)
	if err != nil {
		return err
	}
	for _, kv := range sets {
		name, val, err := parseSet(kv)
		if err != nil {
			return err
		}
		if p, err = p.With(name, val); err != nil {
			return err
		}
	}
	d, err := core.ComputeDemand(s, p, core.BusCosts())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: c = %.4f cpu cycles/instr, b = %.4f bus cycles/instr\n\n", s.Name(), d.CPU, d.Interconnect)
	if *breakdown {
		ocs, _, err := core.DemandBreakdown(s, p, core.BusCosts())
		if err != nil {
			return err
		}
		btab := &report.Table{Header: []string{"operation", "freq/instr", "cpu cycles", "bus cycles", "bus share"}}
		for _, oc := range ocs {
			btab.AddRow(oc.Op.String(),
				fmt.Sprintf("%.6f", oc.Freq),
				fmt.Sprintf("%.4f", oc.CPU),
				fmt.Sprintf("%.4f", oc.Interconnect),
				fmt.Sprintf("%.1f%%", 100*oc.InterconnectShare))
		}
		if err := btab.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	pts, err := core.EvaluateBus(s, p, core.BusCosts(), *procs)
	if err != nil {
		return err
	}
	tab := &report.Table{Header: []string{"processors", "utilization", "power", "bus utilization", "wait cycles"}}
	for _, pt := range pts {
		tab.AddRow(fmt.Sprint(pt.Processors),
			fmt.Sprintf("%.4f", pt.Utilization),
			fmt.Sprintf("%.3f", pt.Power),
			fmt.Sprintf("%.3f", pt.BusUtilization),
			fmt.Sprintf("%.3f", pt.Wait))
	}
	return tab.WriteText(out)
}

func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	schemeName := fs.String("scheme", "swflush", "scheme to evaluate")
	param := fs.String("param", "apl", "parameter to sweep")
	from := fs.Float64("from", 1, "start value")
	to := fs.Float64("to", 64, "end value")
	steps := fs.Int("steps", 16, "number of points")
	procs := fs.Int("procs", 16, "bus machine size")
	level := fs.String("level", "mid", "base parameter level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *steps < 2 {
		return fmt.Errorf("steps %d < 2", *steps)
	}
	s, err := core.SchemeByName(*schemeName)
	if err != nil {
		return err
	}
	base, err := paramsForLevel(*level)
	if err != nil {
		return err
	}
	tab := &report.Table{Header: []string{*param, "power", "utilization"}}
	for i := 0; i < *steps; i++ {
		v := *from + (*to-*from)*float64(i)/float64(*steps-1)
		p, err := base.With(*param, v)
		if err != nil {
			return err
		}
		pts, err := core.EvaluateBus(s, p, core.BusCosts(), *procs)
		if err != nil {
			return err
		}
		pt := pts[*procs-1]
		tab.AddRow(report.FormatFloat(v), fmt.Sprintf("%.3f", pt.Power), fmt.Sprintf("%.4f", pt.Utilization))
	}
	fmt.Fprintf(out, "%s on %d processors, sweeping %s\n\n", s.Name(), *procs, *param)
	return tab.WriteText(out)
}

func cmdRefine(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("refine", flag.ContinueOnError)
	schemesFlag := fs.String("schemes", "swflush,dragon", "comma-separated competing schemes (at least two)")
	axis := fs.String("axis", sweep.AxisProcs, `axis to refine: "procs" or a workload parameter name`)
	from := fs.Float64("from", 1, "axis start (inclusive)")
	to := fs.Float64("to", 64, "axis end (inclusive)")
	procs := fs.Int("procs", 16, "fixed machine size when the axis is a parameter")
	level := fs.String("level", "mid", "base parameter level: low, mid, high")
	coarse := fs.Int("coarse", 9, "initial grid points, both endpoints included")
	minStep := fs.Float64("min-step", 0, "stop subdividing below this interval width (0 = range/1024)")
	var sets multiFlag
	fs.Var(&sets, "set", "override one base parameter, e.g. -set shd=0.1 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var schemes []core.Scheme
	for _, nm := range strings.Split(*schemesFlag, ",") {
		nm = strings.TrimSpace(nm)
		if nm == "" {
			continue
		}
		s, err := core.SchemeByName(nm)
		if err != nil {
			return err
		}
		schemes = append(schemes, s)
	}
	base, err := paramsForLevel(*level)
	if err != nil {
		return err
	}
	for _, kv := range sets {
		name, val, err := parseSet(kv)
		if err != nil {
			return err
		}
		if base, err = base.With(name, val); err != nil {
			return err
		}
	}
	res, err := sweep.New(0).Refine(ctx, sweep.RefineSpec{
		Schemes: schemes,
		Base:    base,
		Axis:    *axis,
		From:    *from,
		To:      *to,
		Procs:   *procs,
		Coarse:  *coarse,
		MinStep: *minStep,
	})
	if err != nil {
		return err
	}
	header := []string{*axis}
	for _, s := range schemes {
		header = append(header, s.Name())
	}
	tab := &report.Table{Header: append(header, "best")}
	for _, pt := range res.Points {
		row := []string{report.FormatFloat(pt.X)}
		for _, pw := range pt.Power {
			row = append(row, fmt.Sprintf("%.3f", pw))
		}
		tab.AddRow(append(row, schemes[pt.Best].Name())...)
	}
	fmt.Fprintf(out, "adaptive crossover refinement: %s over [%s, %s]\n\n",
		*axis, report.FormatFloat(*from), report.FormatFloat(*to))
	if err := tab.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if len(res.Boundaries) == 0 {
		fmt.Fprintf(out, "no crossover: %s wins across the whole range\n", schemes[res.Points[0].Best].Name())
	}
	for _, b := range res.Boundaries {
		fmt.Fprintf(out, "crossover: %s -> %s between %s = %s and %s\n",
			schemes[b.LoBest].Name(), schemes[b.HiBest].Name(),
			*axis, report.FormatFloat(b.Lo), report.FormatFloat(b.Hi))
	}
	// Put the saving in terms of the dense grid that would locate the same
	// boundaries: every axis value at the final resolution, every scheme.
	var dense int
	if *axis == sweep.AxisProcs {
		dense = int(*to-*from) + 1
	} else {
		step := *minStep
		if step <= 0 {
			step = (*to - *from) / 1024
		}
		dense = int(math.Ceil((*to-*from)/step)) + 1
	}
	fmt.Fprintf(out, "\n%d cell solves in %d waves (equivalent dense grid: %d)\n",
		res.Solves, res.Waves, dense*len(schemes))
	return nil
}

func paramsForLevel(level string) (core.Params, error) {
	switch level {
	case "low":
		return core.ParamsAt(core.Low), nil
	case "mid", "middle":
		return core.ParamsAt(core.Mid), nil
	case "high":
		return core.ParamsAt(core.High), nil
	}
	return core.Params{}, fmt.Errorf("unknown level %q", level)
}

func parseSet(kv string) (string, float64, error) {
	name, valStr, ok := strings.Cut(kv, "=")
	if !ok {
		return "", 0, fmt.Errorf("bad -set %q, want name=value", kv)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad -set value %q: %v", valStr, err)
	}
	return name, v, nil
}

// multiFlag collects repeated -set flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
