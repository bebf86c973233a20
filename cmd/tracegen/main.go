// Command tracegen synthesizes multiprocessor address traces for the
// trace-driven simulator.
//
// Usage:
//
//	tracegen -preset pops -o pops.trace
//	tracegen -ncpu 4 -instr 100000 -ls 0.3 -shd 0.25 -o out.trace -text
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	preset := fs.String("preset", "", "start from a preset: "+fmt.Sprint(tracegen.PresetNames()))
	out := fs.String("o", "", "output file (default stdout)")
	text := fs.Bool("text", false, "write the text format instead of binary")
	ncpu := fs.Int("ncpu", 0, "processors (overrides preset)")
	instr := fs.Int("instr", 0, "instructions per processor (overrides preset)")
	seed := fs.Uint64("seed", 0, "RNG seed (overrides preset)")
	ls := fs.Float64("ls", 0, "data references per instruction (overrides preset)")
	shd := fs.Float64("shd", 0, "shared fraction of data references (overrides preset)")
	wr := fs.Float64("wr", 0, "write fraction of data references (overrides preset)")
	noFlush := fs.Bool("noflush", false, "suppress flush records")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := tracegen.DefaultConfig()
	if *preset != "" {
		var err error
		if cfg, err = tracegen.Preset(*preset); err != nil {
			return err
		}
	}
	// Override only what was given on the command line, so every given
	// value, NaN or out of range included, reaches the generator's
	// validation instead of being mistaken for "unset".
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ncpu":
			cfg.NCPU = *ncpu
		case "instr":
			cfg.InstrPerCPU = *instr
		case "seed":
			cfg.Seed = *seed
		case "ls":
			cfg.LS = *ls
		case "shd":
			cfg.SharedFrac = *shd
		case "wr":
			cfg.WriteFrac = *wr
		}
	})
	if *noFlush {
		cfg.EmitFlush = false
	}

	tr, err := tracegen.Generate(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *text {
		err = trace.WriteText(w, tr)
	} else {
		err = trace.WriteTrace(w, tr)
	}
	if err != nil {
		return err
	}

	stats, err := trace.ComputeStats(tr, cfg.BlockSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d records (%d CPUs): %d ifetch, %d read, %d write, %d flush; ls=%.3f shd=%.3f wr=%.3f\n",
		stats.Total, stats.NCPU,
		stats.ByKind[trace.IFetch], stats.ByKind[trace.Read], stats.ByKind[trace.Write], stats.ByKind[trace.Flush],
		stats.LoadStoreFraction(), stats.SharedFraction(), stats.WriteFraction())
	return nil
}
