package sim

import (
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func TestWarmupExcludesColdMisses(t *testing.T) {
	// A trace that touches a working set once (all misses) and then
	// re-touches it (all hits): with warmup covering the first pass,
	// the reported miss counts must be (near) zero.
	var refs []trace.Ref
	for pass := 0; pass < 2; pass++ {
		for b := uint64(0); b < 64; b++ {
			refs = append(refs, trace.NewRef(0, trace.Read, b*16, false))
		}
	}
	tr := &trace.Trace{NCPU: 1, Refs: refs}
	cfg := Config{NCPU: 1, Cache: CacheConfig{Size: 4096, BlockSize: 16, Assoc: 4}, Protocol: ProtoBase}

	cold, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Totals().DataMisses != 64 {
		t.Fatalf("cold run misses = %d, want 64", cold.Totals().DataMisses)
	}

	cfg.WarmupRefs = 64
	warm, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Totals().DataMisses != 0 {
		t.Errorf("warm run misses = %d, want 0", warm.Totals().DataMisses)
	}
	if warm.Totals().Reads != 64 {
		t.Errorf("warm run reads = %d, want 64 (second pass only)", warm.Totals().Reads)
	}
	if warm.BusBusy != 0 {
		t.Errorf("warm run bus busy = %d, want 0 (all hits)", warm.BusBusy)
	}
	if warm.Makespan >= cold.Makespan {
		t.Error("post-warmup makespan must exclude warmup cycles")
	}
}

func TestWarmupAdditivity(t *testing.T) {
	// Conservation: warmup-excluded stats + stats of a warmup-only
	// prefix ~ stats of the full run. (Exact for counts on a single
	// CPU where interleaving cannot shift.)
	cfg := tracegen.DefaultConfig()
	cfg.NCPU = 1
	cfg.InstrPerCPU = 10_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := Config{NCPU: 1, Cache: CacheConfig{Size: 16 * 1024, BlockSize: 16, Assoc: 2}, Protocol: ProtoBase}
	full, err := Run(simCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Refs) / 2
	simCfg.WarmupRefs = half
	tail, err := Run(simCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	prefix := &trace.Trace{NCPU: 1, Refs: tr.Refs[:half]}
	simCfgHead := Config{NCPU: 1, Cache: simCfg.Cache, Protocol: ProtoBase}
	head, err := Run(simCfgHead, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := head.Totals().DataMisses+tail.Totals().DataMisses, full.Totals().DataMisses; got != want {
		t.Errorf("miss additivity: %d != %d", got, want)
	}
	if got, want := head.Makespan+tail.Makespan, full.Makespan; got != want {
		t.Errorf("cycle additivity: %d != %d", got, want)
	}
}

func TestWarmupErrors(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{trace.NewRef(0, trace.Read, 1, false)}}
	cfg := Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase}
	cfg.WarmupRefs = -1
	if _, err := Run(cfg, tr); err == nil {
		t.Error("want error for negative warmup")
	}
	cfg.WarmupRefs = 1
	if _, err := Run(cfg, tr); err == nil {
		t.Error("want error for warmup covering the whole trace")
	}
}
