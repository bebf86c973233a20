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
	}
	return nil
}

// isFraction reports whether x lies in [0,1]; NaN does not.
func isFraction(x float64) bool { return x >= 0 && x <= 1 }

// Address-space layout: disjoint gigabyte-scale arenas keyed by CPU so
// private regions never collide across processors, plus one shared arena.
const (
	codeArena    = uint64(1) << 36
	hotArena     = uint64(2) << 36
	coldArena    = uint64(3) << 36
	sharedArena  = uint64(4) << 36
	perCPUStride = uint64(1) << 32
)

type cpuState struct {
	rng *rand.Rand

	pc        uint64 // current instruction address
	loopStart uint64 // current loop region base

	region      int  // current shared region index, -1 if none
	episodeRem  int  // shared references left in this episode
	episodeRead bool // current episode is read-only
	sharePhase  bool // currently in a communication phase
}

// Generate synthesizes the trace described by cfg. Per-CPU streams are
// generated with independent deterministic RNGs and interleaved
// round-robin, mirroring multiprocessor tracer output.
func Generate(cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	streams := make([][]trace.Ref, cfg.NCPU)
	for cpu := 0; cpu < cfg.NCPU; cpu++ {
		streams[cpu] = generateCPU(cfg, cpu)
	}
	t := trace.Interleave(streams)
	t.NCPU = cfg.NCPU
	return t, nil
}

func generateCPU(cfg Config, cpu int) []trace.Ref {
	st := &cpuState{
		rng:    rand.New(rand.NewPCG(cfg.Seed, uint64(cpu)+1)),
		region: -1,
	}
	bs := uint64(cfg.BlockSize)
	codeBase := codeArena + uint64(cpu)*perCPUStride
	hotBase := hotArena + uint64(cpu)*perCPUStride
	coldBase := coldArena + uint64(cpu)*perCPUStride
	st.loopStart = codeBase
	st.pc = st.loopStart

	// Rough capacity guess: 1 ifetch + ls data refs per instruction,
	// plus flush records.
	capEst := cfg.InstrPerCPU + int(float64(cfg.InstrPerCPU)*cfg.LS) + 16
	refs := make([]trace.Ref, 0, capEst)
	c8 := uint8(cpu)

	for i := 0; i < cfg.InstrPerCPU; i++ {
		// Instruction fetch: sequential walk of the loop region with
		// occasional jumps to fresh code.
		refs = append(refs, trace.Ref{CPU: c8, Kind: trace.IFetch, Addr: st.pc})
		st.pc += 4
		loopBytes := uint64(cfg.LoopBlocks) * bs
		if st.pc >= st.loopStart+loopBytes {
			st.pc = st.loopStart
		}
		if st.rng.Float64() < cfg.JumpProb {
			maxStart := cfg.CodeBlocks - cfg.LoopBlocks
			st.loopStart = codeBase + uint64(st.rng.IntN(maxStart+1))*bs
			st.pc = st.loopStart
		}

		if cfg.PhaseLen > 0 && st.rng.Float64() < 1/float64(cfg.PhaseLen) {
			st.sharePhase = !st.sharePhase
		}

		if st.rng.Float64() >= cfg.LS {
			continue
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
			refs = st.sharedRef(cfg, c8, refs)
			continue
		}
		// Private reference.
		var addr uint64
		if st.rng.Float64() < cfg.ColdProb {
			addr = coldBase + uint64(st.rng.IntN(cfg.ColdBlocks))*bs
		} else {
			addr = hotBase + uint64(st.rng.IntN(cfg.HotBlocks))*bs
		}
		addr += uint64(st.rng.IntN(cfg.BlockSize/4)) * 4
		kind := trace.Read
		if st.rng.Float64() < cfg.WriteFrac {
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{CPU: c8, Kind: kind, Addr: addr})
	}
	// Close any open episode so flush accounting balances.
	if st.region >= 0 && cfg.EmitFlush {
		refs = st.flushRegion(cfg, c8, refs)
	}
	return refs
}

// sharedRef emits one shared data reference, managing episode lifecycle.
func (st *cpuState) sharedRef(cfg Config, cpu uint8, refs []trace.Ref) []trace.Ref {
	if st.region < 0 || st.episodeRem == 0 {
		if st.region >= 0 && cfg.EmitFlush {
			refs = st.flushRegion(cfg, cpu, refs)
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
	return append(refs, trace.Ref{CPU: cpu, Kind: kind, Addr: addr, Shared: true})
}

// flushRegion emits one flush record per block of the current region.
func (st *cpuState) flushRegion(cfg Config, cpu uint8, refs []trace.Ref) []trace.Ref {
	bs := uint64(cfg.BlockSize)
	regionBase := sharedArena + uint64(st.region)*uint64(cfg.BlocksPerRegion)*bs
	for b := 0; b < cfg.BlocksPerRegion; b++ {
		refs = append(refs, trace.Ref{
			CPU: cpu, Kind: trace.Flush,
			Addr: regionBase + uint64(b)*bs, Shared: true,
		})
	}
	return refs
}
