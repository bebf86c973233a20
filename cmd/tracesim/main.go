// Command tracesim replays a multiprocessor address trace through the
// cache/bus simulator under a chosen coherence protocol.
//
// Usage:
//
//	tracesim -trace pops.trace -protocol dragon -cache 65536
//	tracegen -preset pops | tracesim -protocol swflush
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracesim", flag.ContinueOnError)
	traceFile := fs.String("trace", "", "trace file (binary or text; default stdin, binary)")
	protoName := fs.String("protocol", "dragon", "protocol: "+strings.Join(protocolNames(), ", ")+", or any registered alias")
	cacheSize := fs.Int("cache", 64*1024, "per-processor cache size in bytes")
	blockSize := fs.Int("block", 16, "cache block size in bytes")
	assoc := fs.Int("assoc", 2, "cache associativity")
	policy := fs.String("policy", "lru", "replacement policy: lru, fifo, random")
	medium := fs.String("medium", "bus", "interconnect: bus or network")
	warmup := fs.Float64("warmup", 0, "leading fraction of the trace excluded from statistics")
	textFmt := fs.Bool("textfmt", false, "trace is in the text format")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Written so NaN fails too: int(NaN*len) would reach the simulator
	// as a huge negative record count.
	if !(*warmup >= 0 && *warmup < 1) {
		return fmt.Errorf("warmup fraction %g not in [0,1)", *warmup)
	}
	proto, err := sim.ProtocolByName(*protoName)
	if err != nil {
		return err
	}
	pol, err := sim.PolicyByName(*policy)
	if err != nil {
		return err
	}
	var med sim.Medium
	switch *medium {
	case "bus", "":
		med = sim.MediumBus
	case "network", "net":
		med = sim.MediumNetwork
	default:
		return fmt.Errorf("unknown medium %q (want bus or network)", *medium)
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
	if *textFmt {
		tr, err = trace.ReadText(r)
	} else {
		tr, err = trace.ReadTrace(r)
	}
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{
		NCPU:       tr.NCPU,
		Cache:      sim.CacheConfig{Size: *cacheSize, BlockSize: *blockSize, Assoc: *assoc, Replacement: pol},
		Protocol:   proto,
		Medium:     med,
		WarmupRefs: int(float64(len(tr.Refs)) * *warmup),
	}, tr)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "protocol %s on %s, %d CPUs, %d-byte caches (%d-way, %dB blocks), %d records\n\n",
		proto, med, tr.NCPU, *cacheSize, *assoc, *blockSize, len(tr.Refs))

	tab := &report.Table{Header: []string{"cpu", "instr", "data refs", "data miss%", "instr miss%", "bus wait", "cycles", "utilization"}}
	for c, s := range res.PerCPU {
		dataPct, instrPct := 0.0, 0.0
		if s.DataRefs() > 0 {
			dataPct = 100 * float64(s.DataMisses) / float64(s.DataRefs())
		}
		if s.Instructions > 0 {
			instrPct = 100 * float64(s.InstrMisses) / float64(s.Instructions)
		}
		tab.AddRow(fmt.Sprint(c),
			fmt.Sprint(s.Instructions), fmt.Sprint(s.DataRefs()),
			fmt.Sprintf("%.2f", dataPct), fmt.Sprintf("%.2f", instrPct),
			fmt.Sprint(s.BusWait), fmt.Sprint(s.Cycles),
			fmt.Sprintf("%.4f", s.Utilization()))
	}
	if err := tab.WriteText(stdout); err != nil {
		return err
	}
	tot := res.Totals()
	fmt.Fprintf(stdout, "\nprocessing power: %.3f of %d\n", res.Power(), tr.NCPU)
	fmt.Fprintf(stdout, "bus: %.1f%% busy, %d transactions, %d wait cycles\n",
		100*res.BusUtilization(), res.BusTransactions, res.BusWait)
	if tot.Flushes > 0 {
		fmt.Fprintf(stdout, "flushes: %d (%d clean, %d dirty)\n", tot.Flushes, tot.CleanFlushes, tot.DirtyFlushes)
	}
	if tot.Broadcasts > 0 {
		fmt.Fprintf(stdout, "broadcasts: %d, cache-supplied misses: %d, stolen cycles: %d\n",
			tot.Broadcasts, tot.CacheSupplied, tot.StolenCycles)
	}
	if res.Snoop.SharedRefs > 0 {
		fmt.Fprintf(stdout, "snoop: opres=%.3f oclean=%.3f nshd=%.2f\n",
			res.Snoop.OPres(), res.Snoop.OClean(), res.Snoop.NShd())
	}
	return nil
}

// protocolNames lists the simulatable schemes' names in Protocol order.
func protocolNames() []string {
	var names []string
	for p := sim.Protocol(0); p.Scheme() != nil; p++ {
		names = append(names, p.String())
	}
	return names
}
