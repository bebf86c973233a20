// Command traceinfo inspects a multiprocessor address trace: composition
// statistics and, optionally, the full Table 2 workload-parameter
// extraction under a chosen cache geometry.
//
// Usage:
//
//	traceinfo -trace pops.trace
//	traceinfo -trace pops.trace -params -cache 65536 -warmup 0.5
//	tracegen -preset pero | traceinfo -params
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"swcc/internal/core"
	"swcc/internal/measure"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	traceFile := fs.String("trace", "", "trace file (default stdin)")
	textFmt := fs.Bool("textfmt", false, "trace is in the text format")
	blockSize := fs.Int("block", 16, "block size for statistics")
	doParams := fs.Bool("params", false, "extract the Table 2 workload parameters (runs shadow simulations)")
	cacheSize := fs.Int("cache", 64*1024, "cache size for parameter extraction")
	assoc := fs.Int("assoc", 2, "cache associativity for parameter extraction")
	warmup := fs.Float64("warmup", 0.5, "shadow-simulation warmup fraction")
	jsonOut := fs.Bool("json", false, "emit extracted parameters as JSON (model-ready)")
	stability := fs.Bool("stability", false, "split-half measurement stability diagnostic")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var r io.Reader = stdin
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var tr *trace.Trace
	var err error
	if *textFmt {
		tr, err = trace.ReadText(r)
	} else {
		tr, err = trace.ReadTrace(r)
	}
	if err != nil {
		return err
	}

	stats, err := trace.ComputeStats(tr, *blockSize)
	if err != nil {
		return err
	}
	if !*jsonOut {
		tab := &report.Table{Header: []string{"metric", "value"}}
		tab.AddRow("processors", fmt.Sprint(stats.NCPU))
		tab.AddRow("records", fmt.Sprint(stats.Total))
		tab.AddRow("ifetches", fmt.Sprint(stats.ByKind[trace.IFetch]))
		tab.AddRow("reads", fmt.Sprint(stats.ByKind[trace.Read]))
		tab.AddRow("writes", fmt.Sprint(stats.ByKind[trace.Write]))
		tab.AddRow("flushes", fmt.Sprint(stats.ByKind[trace.Flush]))
		tab.AddRow("shared data refs", fmt.Sprint(stats.SharedData))
		tab.AddRow(fmt.Sprintf("unique %dB blocks", *blockSize), fmt.Sprint(stats.UniqueBlocks))
		tab.AddRow("ls (data/instr)", fmt.Sprintf("%.4f", stats.LoadStoreFraction()))
		tab.AddRow("shd (shared/data)", fmt.Sprintf("%.4f", stats.SharedFraction()))
		tab.AddRow("wr (write/data)", fmt.Sprintf("%.4f", stats.WriteFraction()))
		if err := tab.WriteText(stdout); err != nil {
			return err
		}
	}

	if !*doParams && !*jsonOut && !*stability {
		return nil
	}
	m, err := measure.Extract(tr, sim.CacheConfig{Size: *cacheSize, BlockSize: *blockSize, Assoc: *assoc}, *warmup)
	if err != nil {
		return err
	}
	if *jsonOut {
		return m.Params.WriteParams(stdout)
	}
	fmt.Fprintf(stdout, "\nTable 2 parameters (%dB cache, %d-way, %.0f%% warmup):\n\n", *cacheSize, *assoc, *warmup*100)
	tab := &report.Table{Header: []string{"parameter", "value", "Table 7 low", "mid", "high"}}
	for _, f := range core.Fields() {
		p := m.Params
		tab.AddRow(f.Name, fmt.Sprintf("%.4f", f.Get(&p)),
			report.FormatFloat(f.Low), report.FormatFloat(f.Mid), report.FormatFloat(f.High))
	}
	if err := tab.WriteText(stdout); err != nil {
		return err
	}
	src := "inter-processor handoffs"
	if m.FlushDelimited {
		src = "explicit flush records"
	}
	fmt.Fprintf(stdout, "\napl/mdshd measured from %s (%d runs, %d refs)\n", src, m.Runs, m.RunRefs)

	if *stability {
		st, err := measure.Stability(tr, sim.CacheConfig{Size: *cacheSize, BlockSize: *blockSize, Assoc: *assoc}, *warmup)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nsplit-half stability (relative divergence between trace halves):\n\n")
		stab := &report.Table{Header: []string{"parameter", "divergence", "verdict"}}
		for _, f := range core.Fields() {
			v := st[f.Name]
			verdict := "stable"
			switch {
			case v > 0.25:
				verdict = "UNSTABLE — treat as a range"
			case v > 0.10:
				verdict = "noisy"
			}
			stab.AddRow(f.Name, fmt.Sprintf("%.1f%%", 100*v), verdict)
		}
		if err := stab.WriteText(stdout); err != nil {
			return err
		}
	}
	return nil
}
