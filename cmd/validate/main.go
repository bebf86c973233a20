// Command validate reproduces the paper's model-validation figures
// (Figures 1-3): analytical-model predictions against trace-driven
// simulation on synthetic multiprocessor traces.
//
// Usage:
//
//	validate -fig 1            # Base & Dragon, 64KB caches
//	validate -fig 2 -preset pero -scale 0.5
//	validate -fig 3            # 8-processor trace, three cache sizes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"swcc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fig := fs.Int("fig", 1, "validation figure to reproduce (1, 2, or 3)")
	preset := fs.String("preset", "", "trace preset (pops, thor, pero; figure default if empty)")
	scale := fs.Float64("scale", 1.0, "trace length scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig < 1 || *fig > 3 {
		return fmt.Errorf("fig %d out of range 1..3", *fig)
	}
	ds, err := experiments.RunCtx(context.Background(), fmt.Sprintf("fig%d", *fig), experiments.Options{
		Preset:     *preset,
		TraceScale: *scale,
	})
	if err != nil {
		return err
	}
	out, err := ds.Render()
	if err != nil {
		return err
	}
	fmt.Fprint(w, out)
	return nil
}
