// Command sensitivity reproduces the paper's Table 8: the percent change
// in execution time when each workload parameter moves from its Table 7
// low value to its high value, per coherence scheme.
//
// Usage:
//
//	sensitivity [-procs 16] [-rank scheme] [-parallel N]
//
// -parallel sizes the worker pool the sensitivity grid is evaluated on
// (0, the default, uses every core); results are bit-identical at any
// setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"swcc/internal/core"
	"swcc/internal/report"
	"swcc/internal/sensitivity"
	"swcc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sensitivity:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	procs := fs.Int("procs", 16, "bus machine size the execution time is computed at")
	rank := fs.String("rank", "", "also print parameters ranked by impact for this scheme")
	parallel := fs.Int("parallel", 0, "worker pool size for the sensitivity grid (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	tab8, err := sensitivity.AnalyzeWithCtx(context.Background(), sweep.New(*parallel), core.PaperSchemes(), *procs)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:  fmt.Sprintf("Sensitivity at %d processors: %% execution-time change, parameter low→high", *procs),
		Header: append([]string{"parameter"}, tab8.Schemes...),
	}
	for _, p := range tab8.Params {
		row := []string{p}
		for _, s := range tab8.Schemes {
			c, _ := tab8.Cell(p, s)
			row = append(row, fmt.Sprintf("%+.1f%%", c.PercentChange))
		}
		tab.AddRow(row...)
	}
	if err := tab.WriteText(out); err != nil {
		return err
	}
	if *rank != "" {
		cells := tab8.MostSensitive(*rank)
		if len(cells) == 0 {
			return fmt.Errorf("unknown scheme %q", *rank)
		}
		fmt.Fprintf(out, "\n%s, by impact:\n", *rank)
		for i, c := range cells {
			fmt.Fprintf(out, "  %2d. %-7s %+.1f%%\n", i+1, c.Param, c.PercentChange)
		}
	}
	return nil
}
