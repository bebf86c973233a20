// Validation walks the paper's Section 3 methodology end to end:
// generate a multiprocessor address trace, extract the workload
// parameters from it, replay it through the trace-driven cache/bus
// simulator, and check the analytical model against the simulation.
//
//	go run ./examples/validation
package main

import (
	"fmt"
	"log"

	"swcc"
)

func main() {
	// 1. A POPS-like 4-processor trace (synthetic stand-in for the
	// paper's ATUM-2 traces).
	cfg, err := swcc.TracePreset("pops")
	if err != nil {
		log.Fatal(err)
	}
	tr, err := swcc.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace %q: %d CPUs, %d records\n", cfg.Name, tr.NCPU, len(tr.Refs))

	// 2. Measure the Table 2 parameters with 64KB caches.
	cache := swcc.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	m, err := swcc.MeasureParams(tr, cache, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	p := m.Params
	fmt.Printf("\nmeasured parameters:\n")
	fmt.Printf("  ls=%.3f msdat=%.4f mains=%.4f md=%.3f\n", p.LS, p.MsDat, p.MsIns, p.MD)
	fmt.Printf("  shd=%.3f wr=%.3f apl=%.1f mdshd=%.3f\n", p.Shd, p.WR, p.APL, p.MdShd)
	fmt.Printf("  oclean=%.3f opres=%.3f nshd=%.2f\n", p.OClean, p.OPres, p.NShd)

	// 3. Model vs simulation for Base and Dragon at 1..4 processors.
	fmt.Printf("\n%-8s %-10s %10s %10s %8s\n", "scheme", "procs", "sim power", "model", "error")
	for _, pair := range []struct {
		proto  swcc.Protocol
		scheme swcc.Scheme
	}{
		{swcc.ProtoBase, swcc.Base{}},
		{swcc.ProtoDragon, swcc.Dragon{}},
	} {
		modelPts, err := swcc.EvaluateBus(pair.scheme, p, swcc.BusCosts(), tr.NCPU)
		if err != nil {
			log.Fatal(err)
		}
		for n := 1; n <= tr.NCPU; n++ {
			// An n-processor machine runs the trace's first n
			// processors in place, warmed on half of their records.
			res, err := swcc.Simulate(swcc.SimConfig{
				NCPU: n, Cache: cache, Protocol: pair.proto,
				WarmupRefs: tr.RestrictedLen(n) / 2,
			}, tr)
			if err != nil {
				log.Fatal(err)
			}
			simPower := res.Power()
			modelPower := modelPts[n-1].Power
			fmt.Printf("%-8s %-10d %10.3f %10.3f %7.1f%%\n",
				pair.scheme.Name(), n, simPower, modelPower,
				100*(modelPower-simPower)/simPower)
		}
	}
	fmt.Println("\nAs in the paper, the model tracks the simulation closely and slightly")
	fmt.Println("overestimates contention (exponential vs fixed bus service times).")
}
