package tracegen

import (
	"errors"
	"math"
	"testing"

	"swcc/internal/trace"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.InstrPerCPU = 20_000
	return cfg
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NCPU != 4 {
		t.Errorf("ncpu = %d", tr.NCPU)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Refs) != len(b.Refs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Refs), len(b.Refs))
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
	cfg := smallConfig()
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Refs) == len(a.Refs)
	if same {
		diff := 0
		for i := range a.Refs {
			if a.Refs[i] != c.Refs[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateInstructionCount(t *testing.T) {
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.ComputeStats(tr, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.NCPU * cfg.InstrPerCPU
	if s.ByKind[trace.IFetch] != want {
		t.Errorf("ifetches = %d, want %d", s.ByKind[trace.IFetch], want)
	}
}

func TestGenerateHitsTargetFractions(t *testing.T) {
	cfg := smallConfig()
	cfg.InstrPerCPU = 100_000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.ComputeStats(tr, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if ls := s.LoadStoreFraction(); math.Abs(ls-cfg.LS) > 0.01 {
		t.Errorf("measured ls = %g, target %g", ls, cfg.LS)
	}
	if shd := s.SharedFraction(); math.Abs(shd-cfg.SharedFrac) > 0.02 {
		t.Errorf("measured shd = %g, target %g", shd, cfg.SharedFrac)
	}
	if wr := s.WriteFraction(); math.Abs(wr-cfg.WriteFrac) > 0.02 {
		t.Errorf("measured wr = %g, target %g", wr, cfg.WriteFrac)
	}
}

func TestGenerateAddressArenasDisjoint(t *testing.T) {
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Refs {
		arena := r.Addr() >> 36
		switch {
		case r.Kind() == trace.IFetch && arena != 1:
			t.Fatalf("ref %d: ifetch outside code arena: %x", i, r.Addr())
		case r.Shared() && arena != 4:
			t.Fatalf("ref %d: shared ref outside shared arena: %x", i, r.Addr())
		case r.Kind().IsData() && !r.Shared() && arena != 2 && arena != 3:
			t.Fatalf("ref %d: private ref outside private arenas: %x", i, r.Addr())
		}
	}
}

func TestGeneratePrivateArenasPerCPU(t *testing.T) {
	// No two CPUs may share a private (code/hot/cold) address.
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uint64]uint8{}
	for _, r := range tr.Refs {
		if r.Shared() {
			continue
		}
		if prev, ok := owner[r.Addr()]; ok && prev != r.CPU() {
			t.Fatalf("private address %x used by CPUs %d and %d", r.Addr(), prev, r.CPU())
		}
		owner[r.Addr()] = r.CPU()
	}
}

// TestGeneratePrivateArenasAt32CPUs checks the largest machine Config
// allows: no private block is touched by two processors, and no private
// reference lands in the shared arena. Sixteen processors fill one
// arena, so a layout that keeps stepping by processor runs CPU 16's code
// into CPU 0's hot data and its cold pool into the shared arena.
func TestGeneratePrivateArenasAt32CPUs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NCPU = 32
	cfg.InstrPerCPU = 5_000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := uint64(cfg.BlockSize)
	owner := map[uint64]uint8{}
	for i, r := range tr.Refs {
		if r.Shared() {
			continue
		}
		if r.Addr()>>36 == sharedArena>>36 {
			t.Fatalf("ref %d: cpu %d private ref in the shared arena: %x", i, r.CPU(), r.Addr())
		}
		blk := r.Addr() / bs
		if prev, ok := owner[blk]; ok && prev != r.CPU() {
			t.Fatalf("ref %d: private block %x touched by CPUs %d and %d", i, blk, prev, r.CPU())
		}
		owner[blk] = r.CPU()
	}
}

func TestGenerateTrueSharingExists(t *testing.T) {
	// At default sharing levels, some shared block must be written by
	// one CPU and referenced by another — otherwise the trace cannot
	// exercise coherence at all.
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writers := map[uint64]map[uint8]bool{}
	users := map[uint64]map[uint8]bool{}
	bs := uint64(cfg.BlockSize)
	for _, r := range tr.Refs {
		if !r.Shared() || !r.Kind().IsData() {
			continue
		}
		blk := r.Addr() / bs
		if users[blk] == nil {
			users[blk] = map[uint8]bool{}
		}
		users[blk][r.CPU()] = true
		if r.Kind() == trace.Write {
			if writers[blk] == nil {
				writers[blk] = map[uint8]bool{}
			}
			writers[blk][r.CPU()] = true
		}
	}
	shared := 0
	for blk, w := range writers {
		if len(w) >= 1 && len(users[blk]) >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no write-shared blocks in generated trace")
	}
}

func TestGenerateFlushBalance(t *testing.T) {
	// With EmitFlush, every episode ends in exactly BlocksPerRegion
	// flushes, so flush count = episodes * BlocksPerRegion and every
	// flush addresses the shared arena.
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for _, r := range tr.Refs {
		if r.Kind() == trace.Flush {
			flushes++
			if r.Addr()>>36 != 4 {
				t.Fatalf("flush outside shared arena: %x", r.Addr())
			}
			if r.Addr()%uint64(cfg.BlockSize) != 0 {
				t.Fatalf("flush not block-aligned: %x", r.Addr())
			}
		}
	}
	if flushes == 0 {
		t.Fatal("no flush records generated")
	}
	if flushes%cfg.BlocksPerRegion != 0 {
		t.Errorf("flush count %d not a multiple of region size %d", flushes, cfg.BlocksPerRegion)
	}
}

func TestGenerateNoFlushMode(t *testing.T) {
	cfg := smallConfig()
	cfg.EmitFlush = false
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Refs {
		if r.Kind() == trace.Flush {
			t.Fatal("flush record despite EmitFlush=false")
		}
	}
}

func TestGeneratePhases(t *testing.T) {
	cfg := smallConfig()
	cfg.InstrPerCPU = 100_000
	cfg.PhaseLen = 2000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.ComputeStats(tr, cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	// Long-run shared fraction stays near the target...
	if shd := s.SharedFraction(); math.Abs(shd-cfg.SharedFrac) > 0.04 {
		t.Errorf("phased shd = %g, target %g", shd, cfg.SharedFrac)
	}
	// ...but sharing is bursty: windowed shared fractions must vary
	// far more than in the phase-free trace.
	burstiness := func(tr *trace.Trace) float64 {
		const window = 4000
		var varsum, mean float64
		var fractions []float64
		shared, data := 0, 0
		for _, r := range tr.Refs {
			if !r.Kind().IsData() {
				continue
			}
			data++
			if r.Shared() {
				shared++
			}
			if data == window {
				fractions = append(fractions, float64(shared)/float64(data))
				shared, data = 0, 0
			}
		}
		for _, f := range fractions {
			mean += f
		}
		mean /= float64(len(fractions))
		for _, f := range fractions {
			varsum += (f - mean) * (f - mean)
		}
		return varsum / float64(len(fractions))
	}
	phased := burstiness(tr)
	cfg.PhaseLen = 0
	flat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if phased < 3*burstiness(flat) {
		t.Errorf("phased variance %g not clearly above flat %g", phased, burstiness(flat))
	}
}

func TestGenerateBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.NCPU = 0 },
		func(c *Config) { c.NCPU = 33 },
		func(c *Config) { c.InstrPerCPU = 0 },
		func(c *Config) { c.LS = 1.5 },
		func(c *Config) { c.SharedFrac = -0.1 },
		func(c *Config) { c.WriteFrac = 2 },
		func(c *Config) { c.ColdProb = -1 },
		func(c *Config) { c.JumpProb = 1.5 },
		func(c *Config) { c.HotBlocks = 0 },
		func(c *Config) { c.CodeBlocks = 1; c.LoopBlocks = 2 },
		func(c *Config) { c.SharedRegions = 0 },
		func(c *Config) { c.EpisodeLen = 0 },
		func(c *Config) { c.BlockSize = 24 },
		func(c *Config) { c.BlockSize = 2 },
		func(c *Config) { c.PhaseLen = -1 },
		func(c *Config) { c.PhaseLen = 100; c.SharedFrac = 0.7 },
		// Working sets that overflow their arenas would collide or
		// run past trace.MaxAddr.
		func(c *Config) { c.ColdBlocks = 1 << 29 },
		func(c *Config) { c.BlockSize = 1 << 40 },
		func(c *Config) { c.SharedRegions = 1 << 31; c.BlocksPerRegion = 1 << 31 },
		// NaN fails every comparison, so a range check written as
		// "x < 0 || x > 1" would let it through.
		func(c *Config) { c.LS = math.NaN() },
		func(c *Config) { c.SharedFrac = math.NaN() },
		func(c *Config) { c.WriteFrac = math.NaN() },
		func(c *Config) { c.ColdProb = math.NaN() },
		func(c *Config) { c.JumpProb = math.NaN() },
		func(c *Config) { c.ReadOnlyEpisodeFrac = math.NaN() },
		func(c *Config) { c.LS = math.Inf(1) },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := Generate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 6 {
		t.Fatalf("got %d presets, want 6: %v", len(names), names)
	}
	for _, name := range names {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Name != name {
			t.Errorf("preset %q has name %q", name, cfg.Name)
		}
		cfg.InstrPerCPU = 5000
		if _, err := Generate(cfg); err != nil {
			t.Errorf("preset %q does not generate: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("want error for unknown preset")
	}
	if p, _ := Preset("pero8"); p.NCPU != 8 {
		t.Errorf("pero8 ncpu = %d, want 8", p.NCPU)
	}
}

func TestPresetSharingOrdering(t *testing.T) {
	// timeshare < message < thor < pops < pero in sharing intensity.
	order := []string{"timeshare", "message", "thor", "pops", "pero"}
	prev := -1.0
	for _, name := range order {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SharedFrac <= prev {
			t.Errorf("%s sharing %g not above previous %g", name, cfg.SharedFrac, prev)
		}
		prev = cfg.SharedFrac
	}
}
