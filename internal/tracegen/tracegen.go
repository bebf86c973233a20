// Package tracegen synthesizes multiprocessor address traces with
// controllable workload characteristics. It substitutes for the ATUM-2
// traces (POPS, THOR, PERO) the paper used for validation, which are
// proprietary and lost: what the validation experiment needs is an
// interleaved multiprocessor reference stream whose measured Table 2
// parameters fall in the published Table 7 ranges, and the generator
// produces that by construction.
//
// The workload model per processor:
//
//   - An instruction stream walks sequentially through a loop region,
//     occasionally jumping to a fresh region (cold code -> instruction
//     misses at roughly JumpProb * LoopBlocks per instruction).
//   - Private data references split between a small hot working set
//     (cache-resident after warm-up) and a large cold pool (misses), so
//     the data miss rate tracks ColdProb.
//   - Shared references happen in critical-section episodes: the
//     processor claims a shared region, makes EpisodeLen references over
//     its blocks (stores with probability WriteFrac), optionally emits
//     flush records for the region's blocks, then moves on. Contention
//     for the same regions by other processors creates true sharing, and
//     EpisodeLen/BlocksPerRegion sets the achievable apl.
package tracegen

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"swcc/internal/trace"
)

// ErrBadConfig reports an invalid generator configuration.
var ErrBadConfig = errors.New("tracegen: invalid config")

// Config controls trace synthesis. Zero fields are filled with defaults
// by Generate; see DefaultConfig for the baseline.
type Config struct {
	// Name labels the workload (presets: pops, thor, pero, pero8).
	Name string
	// NCPU is the number of processors (1..32).
	NCPU int
	// InstrPerCPU is the number of instructions (ifetch records) each
	// processor executes.
	InstrPerCPU int
	// Seed makes generation deterministic.
	Seed uint64

	// LS is the probability an instruction also issues a data
	// reference.
	LS float64
	// SharedFrac is the probability a data reference targets shared
	// data.
	SharedFrac float64
	// WriteFrac is the probability a data reference is a store.
	WriteFrac float64

	// HotBlocks is the per-CPU hot private working set, in blocks.
	HotBlocks int
	// ColdBlocks is the per-CPU cold private pool, in blocks.
	ColdBlocks int
	// ColdProb is the probability a private reference goes to the
	// cold pool (approximately the private data miss rate).
	ColdProb float64

	// LoopBlocks is the instruction loop body size, in blocks.
	LoopBlocks int
	// CodeBlocks is the per-CPU code region size, in blocks.
	CodeBlocks int
	// JumpProb is the per-instruction probability of jumping to a new
	// loop region.
	JumpProb float64

	// SharedRegions is the number of distinct shared regions.
	SharedRegions int
	// BlocksPerRegion is the size of each shared region, in blocks.
	BlocksPerRegion int
	// EpisodeLen is the number of shared references a processor makes
	// to a region before releasing it.
	EpisodeLen int
	// ReadOnlyEpisodeFrac is the probability an episode only reads its
	// region (e.g. scanning a shared table). Read-only episodes leave
	// no dirty copies behind, raising the measured oclean.
	ReadOnlyEpisodeFrac float64
	// PhaseLen, when positive, is the mean instructions per workload
	// phase: the processor alternates between compute phases (shared
	// references suppressed to 20% of SharedFrac) and communication
	// phases (boosted to 180%), modeling the bursty phase behavior of
	// real parallel programs. The long-run shared fraction stays
	// approximately SharedFrac. 0 disables phases.
	PhaseLen int
	// EmitFlush adds flush records for each region block at episode
	// end, enabling Software-Flush replay.
	EmitFlush bool

	// BlockSize is the cache block size in bytes (power of two).
	BlockSize int
}

// DefaultConfig returns a 4-processor middle-of-the-road workload.
func DefaultConfig() Config {
	return Config{
		Name:            "default",
		NCPU:            4,
		InstrPerCPU:     100_000,
		Seed:            1,
		LS:              0.3,
		SharedFrac:      0.25,
		WriteFrac:       0.25,
		HotBlocks:       256,
		ColdBlocks:      1 << 16,
		ColdProb:        0.014,
		LoopBlocks:      32,
		CodeBlocks:      1 << 14,
		JumpProb:        0.0001,
		SharedRegions:   64,
		BlocksPerRegion: 4,
		EpisodeLen:      24,
		EmitFlush:       true,
		BlockSize:       16,
	}
}

// validate checks the configuration domain.
func (c *Config) validate() error {
	switch {
	case c.NCPU < 1 || c.NCPU > 32:
		return fmt.Errorf("%w: ncpu %d", ErrBadConfig, c.NCPU)
	case c.InstrPerCPU < 1:
		return fmt.Errorf("%w: instrPerCPU %d", ErrBadConfig, c.InstrPerCPU)
	case !isFraction(c.LS):
		return fmt.Errorf("%w: ls %g", ErrBadConfig, c.LS)
	case !isFraction(c.SharedFrac):
		return fmt.Errorf("%w: sharedFrac %g", ErrBadConfig, c.SharedFrac)
	case !isFraction(c.WriteFrac):
		return fmt.Errorf("%w: writeFrac %g", ErrBadConfig, c.WriteFrac)
	case !isFraction(c.ColdProb):
		return fmt.Errorf("%w: coldProb %g", ErrBadConfig, c.ColdProb)
	case !isFraction(c.JumpProb):
		return fmt.Errorf("%w: jumpProb %g", ErrBadConfig, c.JumpProb)
	case c.HotBlocks < 1 || c.ColdBlocks < 1 || c.LoopBlocks < 1 || c.CodeBlocks < c.LoopBlocks:
		return fmt.Errorf("%w: working-set sizes", ErrBadConfig)
	case c.SharedRegions < 1 || c.BlocksPerRegion < 1 || c.EpisodeLen < 1:
		return fmt.Errorf("%w: sharing shape", ErrBadConfig)
	case !isFraction(c.ReadOnlyEpisodeFrac):
		return fmt.Errorf("%w: readOnlyEpisodeFrac %g", ErrBadConfig, c.ReadOnlyEpisodeFrac)
	case c.PhaseLen < 0:
		return fmt.Errorf("%w: phaseLen %d", ErrBadConfig, c.PhaseLen)
	case c.PhaseLen > 0 && c.SharedFrac*1.8 > 1:
		return fmt.Errorf("%w: phases with sharedFrac %g would exceed 1", ErrBadConfig, c.SharedFrac)
	case c.BlockSize < 4 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("%w: block size %d", ErrBadConfig, c.BlockSize)
	case !fits(perCPUStride, c.BlockSize, max(c.CodeBlocks, c.HotBlocks, c.ColdBlocks), 1),
		!fits(arenaSize, c.BlockSize, c.SharedRegions, c.BlocksPerRegion):
		return fmt.Errorf("%w: working sets overflow their address arenas", ErrBadConfig)
	}
	return nil
}

// fits reports whether a*b blocks of blockSize bytes fit in size bytes,
// without overflowing.
func fits(size uint64, blockSize, a, b int) bool {
	blocks := size / uint64(blockSize)
	return uint64(a) <= blocks && uint64(b) <= blocks/uint64(a)
}

// isFraction reports whether x lies in [0,1]; NaN does not.
func isFraction(x float64) bool { return x >= 0 && x <= 1 }

// Address-space layout: disjoint gigabyte-scale arenas keyed by CPU so
// private regions never collide across processors, plus one shared arena.
// A 2^36-byte arena holds sixteen processors' 2^32-byte slices, so CPUs
// 0-15 use the code, hot and cold arenas below the shared one and CPUs
// 16-31 a second set above it. Every address stays below 2^39, far under
// trace.MaxAddr.
const (
	codeArena    = uint64(1) << 36
	hotArena     = uint64(2) << 36
	coldArena    = uint64(3) << 36
	sharedArena  = uint64(4) << 36
	arenaSize    = uint64(1) << 36
	perCPUStride = uint64(1) << 32
)

// privateBase returns the start of cpu's slice of a private arena; the
// arenas of CPUs 16-31 sit sharedArena bytes above those of CPUs 0-15.
func privateBase(arena uint64, cpu int) uint64 {
	const perArena = int(arenaSize / perCPUStride)
	return arena + uint64(cpu/perArena)*sharedArena + uint64(cpu%perArena)*perCPUStride
}

// cpuState is one processor's generator: its own deterministic RNG and
// workload state, plus the records of its current instruction not yet
// emitted into the interleaved trace.
type cpuState struct {
	cfg *Config
	rng *rand.Rand
	cpu uint8

	codeBase, hotBase, coldBase uint64 // this processor's private arenas

	pc        uint64 // current instruction address
	loopStart uint64 // current loop region base

	region      int  // current shared region index, -1 if none
	episodeRem  int  // shared references left in this episode
	episodeRead bool // current episode is read-only
	sharePhase  bool // currently in a communication phase

	instrs  int         // instructions generated so far
	closed  bool        // the final open episode has been closed
	pending []trace.Ref // current instruction's records, pending[head:] not yet emitted
	head    int
}

// Generate synthesizes the trace described by cfg. Each processor's
// stream comes from its own deterministic RNG, and the streams are
// interleaved round-robin, one record per processor per turn, mirroring
// multiprocessor tracer output: the trace trace.Interleave makes of the
// separate streams. The generators are stepped in turn and append
// straight into one buffer sized from the expected record count, so the
// trace is written once.
func Generate(cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cpus := make([]cpuState, cfg.NCPU)
	for c := range cpus {
		cpus[c].init(&cfg, c)
	}
	t := &trace.Trace{NCPU: cfg.NCPU, Refs: make([]trace.Ref, 0, expectedRefs(&cfg))}
	for live := true; live; {
		live = false
		for c := range cpus {
			if r, ok := cpus[c].next(); ok {
				t.Refs = append(t.Refs, r)
				live = true
			}
		}
	}
	return t, nil
}

// expectedRefs sizes Generate's buffer from the expected records per
// instruction: one ifetch and LS data references, plus, with EmitFlush,
// BlocksPerRegion flushes per EpisodeLen shared references. A 1% margin
// and each processor's final episode flush keep a trace from outgrowing
// it.
func expectedRefs(cfg *Config) int {
	perInstr := 1 + cfg.LS
	if cfg.EmitFlush {
		perInstr += cfg.LS * cfg.SharedFrac * float64(cfg.BlocksPerRegion) / float64(cfg.EpisodeLen)
	}
	n := perInstr * float64(cfg.NCPU) * float64(cfg.InstrPerCPU)
	return int(n*1.01) + cfg.NCPU*(cfg.BlocksPerRegion+16)
}

func (st *cpuState) init(cfg *Config, cpu int) {
	*st = cpuState{
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(cfg.Seed, uint64(cpu)+1)),
		cpu:      uint8(cpu),
		codeBase: privateBase(codeArena, cpu),
		hotBase:  privateBase(hotArena, cpu),
		coldBase: privateBase(coldArena, cpu),
		region:   -1,
		// An instruction emits at most an ifetch, one episode's
		// flushes and one shared reference.
		pending: make([]trace.Ref, 0, cfg.BlocksPerRegion+2),
	}
	st.loopStart = st.codeBase
	st.pc = st.loopStart
}

// next returns the processor's next record, or false once its stream
// is exhausted.
func (st *cpuState) next() (trace.Ref, bool) {
	for st.head == len(st.pending) {
		st.pending, st.head = st.pending[:0], 0
		switch {
		case st.instrs < st.cfg.InstrPerCPU:
			st.instrs++
			st.pending = st.instruction(st.pending)
		case !st.closed:
			// Close any open episode so flush accounting balances.
			st.closed = true
			if st.region >= 0 && st.cfg.EmitFlush {
				st.pending = st.flushRegion(st.pending)
			}
		default:
			return 0, false
		}
	}
	r := st.pending[st.head]
	st.head++
	return r, true
}

// instruction appends one instruction's records to refs: its fetch and
// any data reference, with the flushes of an episode it ends.
func (st *cpuState) instruction(refs []trace.Ref) []trace.Ref {
	cfg := st.cfg
	bs := uint64(cfg.BlockSize)
	// Instruction fetch: sequential walk of the loop region with
	// occasional jumps to fresh code.
	refs = append(refs, trace.NewRef(st.cpu, trace.IFetch, st.pc, false))
	st.pc += 4
	loopBytes := uint64(cfg.LoopBlocks) * bs
	if st.pc >= st.loopStart+loopBytes {
		st.pc = st.loopStart
	}
	if st.rng.Float64() < cfg.JumpProb {
		maxStart := cfg.CodeBlocks - cfg.LoopBlocks
		st.loopStart = st.codeBase + uint64(st.rng.IntN(maxStart+1))*bs
		st.pc = st.loopStart
	}

	if cfg.PhaseLen > 0 && st.rng.Float64() < 1/float64(cfg.PhaseLen) {
		st.sharePhase = !st.sharePhase
	}

	if st.rng.Float64() >= cfg.LS {
		return refs
	}
	// Data reference.
	sharedFrac := cfg.SharedFrac
	if cfg.PhaseLen > 0 {
		if st.sharePhase {
			sharedFrac *= 1.8
		} else {
			sharedFrac *= 0.2
		}
	}
	if st.rng.Float64() < sharedFrac {
		return st.sharedRef(refs)
	}
	// Private reference.
	var addr uint64
	if st.rng.Float64() < cfg.ColdProb {
		addr = st.coldBase + uint64(st.rng.IntN(cfg.ColdBlocks))*bs
	} else {
		addr = st.hotBase + uint64(st.rng.IntN(cfg.HotBlocks))*bs
	}
	addr += uint64(st.rng.IntN(cfg.BlockSize/4)) * 4
	kind := trace.Read
	if st.rng.Float64() < cfg.WriteFrac {
		kind = trace.Write
	}
	return append(refs, trace.NewRef(st.cpu, kind, addr, false))
}

// sharedRef emits one shared data reference, managing episode lifecycle.
func (st *cpuState) sharedRef(refs []trace.Ref) []trace.Ref {
	cfg := st.cfg
	if st.region < 0 || st.episodeRem == 0 {
		if st.region >= 0 && cfg.EmitFlush {
			refs = st.flushRegion(refs)
		}
		st.region = st.rng.IntN(cfg.SharedRegions)
		st.episodeRem = cfg.EpisodeLen
		st.episodeRead = st.rng.Float64() < cfg.ReadOnlyEpisodeFrac
	}
	bs := uint64(cfg.BlockSize)
	regionBase := sharedArena + uint64(st.region)*uint64(cfg.BlocksPerRegion)*bs
	addr := regionBase + uint64(st.rng.IntN(cfg.BlocksPerRegion))*bs
	addr += uint64(st.rng.IntN(cfg.BlockSize/4)) * 4
	kind := trace.Read
	if !st.episodeRead && st.rng.Float64() < cfg.WriteFrac {
		kind = trace.Write
	}
	st.episodeRem--
	return append(refs, trace.NewRef(st.cpu, kind, addr, true))
}

// flushRegion emits one flush record per block of the current region.
func (st *cpuState) flushRegion(refs []trace.Ref) []trace.Ref {
	bs := uint64(st.cfg.BlockSize)
	regionBase := sharedArena + uint64(st.region)*uint64(st.cfg.BlocksPerRegion)*bs
	for b := 0; b < st.cfg.BlocksPerRegion; b++ {
		refs = append(refs, trace.NewRef(st.cpu, trace.Flush, regionBase+uint64(b)*bs, true))
	}
	return refs
}
