package sim

import (
	"fmt"

	"swcc/internal/core"
	"swcc/internal/trace"
)

// Protocol selects the coherence scheme the simulator enforces.
type Protocol int

// The simulated coherence schemes. WriteInvalidate is an extension beyond
// the paper (an invalidation-based snoopy protocol to contrast with
// Dragon's update-based one).
const (
	ProtoBase Protocol = iota
	ProtoDragon
	ProtoNoCache
	ProtoSoftwareFlush
	ProtoWriteInvalidate
)

// protoNames is each protocol's scheme name in the core registry,
// indexed by Protocol: the one table behind String and ProtocolByName.
// Registered schemes absent here (Directory, Hybrid, the priority-bus
// discipline, ...) are analytic-model-only: asking the simulator for
// them is ErrBadConfig, not a silent fallback.
var protoNames = [...]string{
	ProtoBase:            "Base",
	ProtoDragon:          "Dragon",
	ProtoNoCache:         "No-Cache",
	ProtoSoftwareFlush:   "Software-Flush",
	ProtoWriteInvalidate: "Write-Invalidate",
}

// String returns the protocol's registered scheme name.
func (p Protocol) String() string {
	if p.valid() {
		return protoNames[p]
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// valid reports whether p is a known protocol.
func (p Protocol) valid() bool {
	return p >= 0 && int(p) < len(protoNames)
}

// ProtocolByName resolves a protocol name through the scheme registry,
// so every registered spelling works (base, swflush, software-flush,
// wi, mesi, ...). Names the registry knows but the simulator does not
// implement report which protocols are simulatable.
func ProtocolByName(name string) (Protocol, error) {
	info, ok := core.SchemeInfoByName(name)
	if !ok {
		return 0, fmt.Errorf("%w: unknown protocol %q", ErrBadConfig, name)
	}
	for p, n := range protoNames {
		if n == info.Scheme.Name() {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("%w: scheme %q has no trace-driven protocol (simulatable: base, dragon, nocache, swflush, wi)",
		ErrBadConfig, info.Scheme.Name())
}

// Config describes one simulation run.
type Config struct {
	// NCPU is the number of processors; it must be at least the
	// trace's NCPU.
	NCPU int
	// Cache sizes each per-processor cache.
	Cache CacheConfig
	// Protocol is the coherence scheme.
	Protocol Protocol
	// Medium selects the interconnect: the shared bus (default) or a
	// circuit-switched multistage network. Snoopy protocols (Dragon,
	// Write-Invalidate) need a broadcast medium and are rejected on
	// the network, exactly as in the analytical model.
	Medium Medium
	// WarmupRefs, when positive, excludes the first WarmupRefs trace
	// records from all reported statistics: they warm the caches but
	// neither their cycles nor their misses count. This compensates
	// for traces too short to fill large caches (the paper observed
	// the same artifact: "the traces were not long enough to fill up
	// the large caches").
	WarmupRefs int
}

// CPUStats accumulates one processor's activity.
type CPUStats struct {
	// Instructions counts productive instructions (ifetch records);
	// flush instructions are overhead and counted separately.
	Instructions uint64
	// Flushes counts flush instructions executed.
	Flushes uint64
	// Reads and Writes count data references.
	Reads, Writes uint64
	// DataMisses and InstrMisses count cache misses by stream.
	DataMisses, InstrMisses uint64
	// DirtyReplacements counts misses whose victim needed a
	// write-back.
	DirtyReplacements uint64
	// CleanFlushes and DirtyFlushes split flush executions by the
	// flushed line's state (absent lines count as clean).
	CleanFlushes, DirtyFlushes uint64
	// ReadThroughs and WriteThroughs count No-Cache bypass operations.
	ReadThroughs, WriteThroughs uint64
	// Broadcasts counts Dragon write-broadcasts (or invalidation
	// transactions under Write-Invalidate).
	Broadcasts uint64
	// CacheSupplied counts misses filled by another cache.
	CacheSupplied uint64
	// StolenCycles counts cycles this processor lost updating its
	// cache on others' broadcasts.
	StolenCycles uint64
	// BusWait accumulates arbitration delay suffered.
	BusWait uint64
	// Cycles is the processor's final clock.
	Cycles uint64
}

// DataRefs returns loads+stores.
func (s CPUStats) DataRefs() uint64 { return s.Reads + s.Writes }

// Utilization is the productive fraction: one cycle per instruction over
// the processor's elapsed cycles.
func (s CPUStats) Utilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// SnoopStats accumulates the cross-cache observations that calibrate the
// Dragon model parameters (oclean, opres, nshd).
type SnoopStats struct {
	// SharedRefs counts data references flagged shared.
	SharedRefs uint64
	// PresentElsewhere counts shared references for which at least one
	// other cache held the block.
	PresentElsewhere uint64
	// SharedMisses counts misses on shared blocks.
	SharedMisses uint64
	// DirtyElsewhere counts shared misses with a dirty copy in another
	// cache.
	DirtyElsewhere uint64
	// Broadcasts and Holders accumulate write-broadcast fan-out.
	Broadcasts, Holders uint64
}

// OPres estimates the opres parameter.
func (s SnoopStats) OPres() float64 {
	if s.SharedRefs == 0 {
		return 0
	}
	return float64(s.PresentElsewhere) / float64(s.SharedRefs)
}

// OClean estimates the oclean parameter.
func (s SnoopStats) OClean() float64 {
	if s.SharedMisses == 0 {
		return 1
	}
	return 1 - float64(s.DirtyElsewhere)/float64(s.SharedMisses)
}

// NShd estimates the nshd parameter.
func (s SnoopStats) NShd() float64 {
	if s.Broadcasts == 0 {
		return 0
	}
	return float64(s.Holders) / float64(s.Broadcasts)
}

// Result is the outcome of a simulation run.
type Result struct {
	// Config echoes the run configuration.
	Config Config
	// PerCPU holds one stats record per processor.
	PerCPU []CPUStats
	// BusBusy, BusWait, BusTransactions summarize the bus.
	BusBusy, BusWait, BusTransactions uint64
	// Makespan is the largest per-processor final clock.
	Makespan uint64
	// Snoop holds the cross-cache observations.
	Snoop SnoopStats
}

// Power returns the machine's processing power: the sum over processors
// of their productive utilization.
func (r *Result) Power() float64 {
	p := 0.0
	for _, s := range r.PerCPU {
		p += s.Utilization()
	}
	return p
}

// Utilization returns mean per-processor utilization.
func (r *Result) Utilization() float64 {
	if len(r.PerCPU) == 0 {
		return 0
	}
	return r.Power() / float64(len(r.PerCPU))
}

// BusUtilization returns the bus busy fraction over the makespan.
func (r *Result) BusUtilization() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.BusBusy) / float64(r.Makespan)
}

// Totals sums the per-CPU stats.
func (r *Result) Totals() CPUStats {
	var t CPUStats
	for _, s := range r.PerCPU {
		t.Instructions += s.Instructions
		t.Flushes += s.Flushes
		t.Reads += s.Reads
		t.Writes += s.Writes
		t.DataMisses += s.DataMisses
		t.InstrMisses += s.InstrMisses
		t.DirtyReplacements += s.DirtyReplacements
		t.CleanFlushes += s.CleanFlushes
		t.DirtyFlushes += s.DirtyFlushes
		t.ReadThroughs += s.ReadThroughs
		t.WriteThroughs += s.WriteThroughs
		t.Broadcasts += s.Broadcasts
		t.CacheSupplied += s.CacheSupplied
		t.StolenCycles += s.StolenCycles
		t.BusWait += s.BusWait
		if s.Cycles > t.Cycles {
			t.Cycles = s.Cycles
		}
	}
	return t
}

// engine holds the mutable simulation state.
type engine struct {
	cfg    Config
	costs  *core.CostTable
	caches []*Cache
	ic     interconnect
	clocks []uint64
	stats  []CPUStats
	snoop  SnoopStats

	// Hot-loop precomputation: the protocol tests and float->cycle cost
	// conversions run once per trace record, so they are resolved once
	// here instead of per access.
	snoopy, dragon, wi, nocache, swflush bool
	opCPU, opIC                          []uint64 // indexed by core.Op
	stealCycles                          uint64
}

// prepare fills the precomputed fields from cfg and the cost table.
func (e *engine) prepare() {
	e.dragon = e.cfg.Protocol == ProtoDragon
	e.wi = e.cfg.Protocol == ProtoWriteInvalidate
	e.nocache = e.cfg.Protocol == ProtoNoCache
	e.swflush = e.cfg.Protocol == ProtoSoftwareFlush
	e.snoopy = e.dragon || e.wi
	ops := core.Ops()
	e.opCPU = make([]uint64, len(ops))
	e.opIC = make([]uint64, len(ops))
	for _, op := range ops {
		c := e.costs.Cost(op)
		e.opCPU[op] = uint64(c.CPU)
		e.opIC[op] = uint64(c.Interconnect)
	}
	e.stealCycles = e.opCPU[core.OpCycleSteal]
}

// Run simulates the trace under the configuration and returns the result.
func Run(cfg Config, t *trace.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.NCPU == 0 {
		cfg.NCPU = t.NCPU
	}
	if cfg.NCPU < t.NCPU {
		return nil, fmt.Errorf("%w: config ncpu %d < trace ncpu %d", ErrBadConfig, cfg.NCPU, t.NCPU)
	}
	if !cfg.Protocol.valid() {
		return nil, fmt.Errorf("%w: unknown protocol %d", ErrBadConfig, int(cfg.Protocol))
	}
	e := &engine{
		cfg:    cfg,
		caches: make([]*Cache, cfg.NCPU),
		clocks: make([]uint64, cfg.NCPU),
		stats:  make([]CPUStats, cfg.NCPU),
	}
	// Operation costs scale with the block size (one bus/network cycle
	// per transferred word), per the paper's own cost derivations.
	words := cfg.Cache.BlockSize / 4
	switch cfg.Medium {
	case MediumBus:
		e.costs = core.BusCostsForBlock(words)
		e.ic = &busInterconnect{}
	case MediumNetwork:
		if cfg.Protocol == ProtoDragon || cfg.Protocol == ProtoWriteInvalidate {
			return nil, fmt.Errorf("%w: snoopy protocol %v needs a broadcast medium, not a network", ErrBadConfig, cfg.Protocol)
		}
		net := newMultistage(cfg.NCPU, cfg.Cache.BlockSize)
		e.costs = core.NetworkCostsForBlock(net.stages, words)
		e.ic = net
	default:
		return nil, fmt.Errorf("%w: unknown medium %d", ErrBadConfig, uint8(cfg.Medium))
	}
	for i := range e.caches {
		c, err := NewCache(cfg.Cache)
		if err != nil {
			return nil, err
		}
		e.caches[i] = c
	}
	e.prepare()

	if cfg.WarmupRefs < 0 || (cfg.WarmupRefs > 0 && cfg.WarmupRefs >= len(t.Refs)) {
		return nil, fmt.Errorf("%w: warmup %d out of range for %d records", ErrBadConfig, cfg.WarmupRefs, len(t.Refs))
	}

	streams := t.PerCPU()
	cursor := make([]int, len(streams))
	processed := 0
	var warmStats []CPUStats
	var warmClocks []uint64
	var warmBusy, warmWait, warmTrans uint64
	var warmSnoop SnoopStats
	remaining := len(t.Refs)
	for remaining > 0 {
		if processed == cfg.WarmupRefs && cfg.WarmupRefs > 0 {
			warmStats = append([]CPUStats(nil), e.stats...)
			warmClocks = append([]uint64(nil), e.clocks...)
			warmBusy, warmWait, warmTrans = e.ic.stats()
			warmSnoop = e.snoop
		}
		// Advance the processor with the smallest clock that still
		// has work: an event-driven interleaving that lets timing,
		// not trace position, order cross-processor references (the
		// paper notes this distorts ordering only slightly).
		cpu := -1
		for c := range streams {
			if cursor[c] >= len(streams[c]) {
				continue
			}
			if cpu < 0 || e.clocks[c] < e.clocks[cpu] {
				cpu = c
			}
		}
		ref := streams[cpu][cursor[cpu]]
		cursor[cpu]++
		remaining--
		processed++
		e.step(int(ref.CPU), ref)
	}

	busy, wait, trans := e.ic.stats()
	res := &Result{
		Config:          cfg,
		PerCPU:          e.stats,
		BusBusy:         busy - warmBusy,
		BusWait:         wait - warmWait,
		BusTransactions: trans - warmTrans,
		Snoop:           subtractSnoop(e.snoop, warmSnoop),
	}
	for c := range e.stats {
		if warmStats != nil {
			res.PerCPU[c] = subtractStats(e.stats[c], warmStats[c])
			res.PerCPU[c].Cycles = e.clocks[c] - warmClocks[c]
		} else {
			res.PerCPU[c].Cycles = e.clocks[c]
		}
		if res.PerCPU[c].Cycles > res.Makespan {
			res.Makespan = res.PerCPU[c].Cycles
		}
	}
	return res, nil
}

// subtractStats returns a-b field-wise (Cycles handled by the caller).
func subtractStats(a, b CPUStats) CPUStats {
	return CPUStats{
		Instructions:      a.Instructions - b.Instructions,
		Flushes:           a.Flushes - b.Flushes,
		Reads:             a.Reads - b.Reads,
		Writes:            a.Writes - b.Writes,
		DataMisses:        a.DataMisses - b.DataMisses,
		InstrMisses:       a.InstrMisses - b.InstrMisses,
		DirtyReplacements: a.DirtyReplacements - b.DirtyReplacements,
		CleanFlushes:      a.CleanFlushes - b.CleanFlushes,
		DirtyFlushes:      a.DirtyFlushes - b.DirtyFlushes,
		ReadThroughs:      a.ReadThroughs - b.ReadThroughs,
		WriteThroughs:     a.WriteThroughs - b.WriteThroughs,
		Broadcasts:        a.Broadcasts - b.Broadcasts,
		CacheSupplied:     a.CacheSupplied - b.CacheSupplied,
		StolenCycles:      a.StolenCycles - b.StolenCycles,
		BusWait:           a.BusWait - b.BusWait,
	}
}

func subtractSnoop(a, b SnoopStats) SnoopStats {
	return SnoopStats{
		SharedRefs:       a.SharedRefs - b.SharedRefs,
		PresentElsewhere: a.PresentElsewhere - b.PresentElsewhere,
		SharedMisses:     a.SharedMisses - b.SharedMisses,
		DirtyElsewhere:   a.DirtyElsewhere - b.DirtyElsewhere,
		Broadcasts:       a.Broadcasts - b.Broadcasts,
		Holders:          a.Holders - b.Holders,
	}
}

// applyOp charges one hardware operation to cpu: interconnect
// arbitration first, then the operation's full CPU time. addr routes the
// transaction on a multistage network (unused on a bus).
func (e *engine) applyOp(cpu int, op core.Op, addr uint64) {
	now := e.clocks[cpu]
	if ic := e.opIC[op]; ic > 0 {
		grant := e.ic.acquire(cpu, addr, now, ic)
		wait := grant - now
		e.stats[cpu].BusWait += wait
		now = grant
	}
	e.clocks[cpu] = now + e.opCPU[op]
}

// othersHolding scans the other caches for the block, returning whether
// any holds it, how many, and a processor holding it dirty (-1 if none).
func (e *engine) othersHolding(cpu int, block uint64) (present bool, holders int, dirtyAt int) {
	dirtyAt = -1
	for c, cache := range e.caches {
		if c == cpu {
			continue
		}
		if cache.Present(block) {
			present = true
			holders++
			if dirtyAt < 0 && cache.IsDirty(block) {
				dirtyAt = c
			}
		}
	}
	return present, holders, dirtyAt
}

// step processes one trace record.
func (e *engine) step(cpu int, ref trace.Ref) {
	switch ref.Kind {
	case trace.IFetch:
		e.stats[cpu].Instructions++
		e.applyOp(cpu, core.OpInstr, ref.Addr)
		e.access(cpu, ref, false)
	case trace.Read:
		e.stats[cpu].Reads++
		e.dataRef(cpu, ref, false)
	case trace.Write:
		e.stats[cpu].Writes++
		e.dataRef(cpu, ref, true)
	case trace.Flush:
		e.flush(cpu, ref)
	}
}

// dataRef handles a load or store.
func (e *engine) dataRef(cpu int, ref trace.Ref, write bool) {
	if e.nocache && ref.Shared {
		// Shared data is uncacheable: go straight to memory.
		if write {
			e.stats[cpu].WriteThroughs++
			e.applyOp(cpu, core.OpWriteThrough, ref.Addr)
		} else {
			e.stats[cpu].ReadThroughs++
			e.applyOp(cpu, core.OpReadThrough, ref.Addr)
		}
		return
	}
	e.access(cpu, ref, write)
}

// access performs a cacheable reference (data or instruction).
func (e *engine) access(cpu int, ref trace.Ref, write bool) {
	cache := e.caches[cpu]
	block := cache.BlockOf(ref.Addr)
	isData := ref.Kind.IsData()
	snoopy := e.snoopy

	var present bool
	var holders, dirtyAt int
	if snoopy {
		present, holders, dirtyAt = e.othersHolding(cpu, block)
		if isData && ref.Shared {
			e.snoop.SharedRefs++
			if present {
				e.snoop.PresentElsewhere++
			}
		}
	}

	// Under Dragon, a store to a block held elsewhere is broadcast on
	// the bus and main memory snarfs the word (Firefly-style update),
	// so neither the writer's line nor the holders' stay dirty;
	// dirtiness only accumulates while a cache is the sole holder.
	markDirty := write
	if e.dragon && write && present {
		markDirty = false
	}

	if cache.Touch(block, markDirty) {
		// Hit. Snoopy stores to blocks held elsewhere need a bus
		// transaction.
		if snoopy && write && present {
			e.broadcast(cpu, block, holders)
		}
		return
	}

	// Miss.
	if isData {
		e.stats[cpu].DataMisses++
	} else {
		e.stats[cpu].InstrMisses++
	}
	if snoopy && isData && ref.Shared {
		e.snoop.SharedMisses++
		if dirtyAt >= 0 {
			e.snoop.DirtyElsewhere++
		}
	}

	victim := cache.Insert(block, markDirty)
	if victim.Valid && victim.Dirty {
		e.stats[cpu].DirtyReplacements++
	}

	fromCache := snoopy && dirtyAt >= 0
	switch {
	case fromCache && victim.Valid && victim.Dirty:
		e.applyOp(cpu, core.OpDirtyMissCache, ref.Addr)
	case fromCache:
		e.applyOp(cpu, core.OpCleanMissCache, ref.Addr)
	case victim.Valid && victim.Dirty:
		e.applyOp(cpu, core.OpDirtyMissMem, ref.Addr)
	default:
		e.applyOp(cpu, core.OpCleanMissMem, ref.Addr)
	}
	if fromCache {
		e.stats[cpu].CacheSupplied++
		// Supplying the block updates memory; the supplier's copy
		// becomes clean (Dragon), or is invalidated outright under
		// Write-Invalidate stores.
		if e.wi && write {
			e.caches[dirtyAt].Invalidate(block)
		} else {
			e.caches[dirtyAt].MarkClean(block)
		}
	}

	if snoopy && write && present {
		e.broadcast(cpu, block, holders)
	}
}

// broadcast performs a Dragon write-broadcast (or a Write-Invalidate
// invalidation) for a store to a block held by `holders` other caches.
func (e *engine) broadcast(cpu int, block uint64, holders int) {
	e.stats[cpu].Broadcasts++
	e.snoop.Broadcasts++
	e.snoop.Holders += uint64(holders)
	// Reconstruct a byte address for routing; snoopy protocols only run
	// on the bus, which ignores it, but keep it correct regardless.
	e.applyOp(cpu, core.OpWriteBroadcast, block*uint64(e.cfg.Cache.BlockSize))
	for c, cache := range e.caches {
		if c == cpu || !cache.Present(block) {
			continue
		}
		if e.wi {
			cache.Invalidate(block)
			continue
		}
		// Dragon: the holding cache updates its copy, stealing a
		// cycle from its processor; the update also supersedes any
		// stale ownership, so a previously dirty copy becomes clean.
		cache.MarkClean(block)
		e.clocks[c] += e.stealCycles
		e.stats[c].StolenCycles += e.stealCycles
	}
}

// flush executes a flush instruction (Software-Flush only; other
// protocols ignore flush records so the same trace can drive them all).
func (e *engine) flush(cpu int, ref trace.Ref) {
	if !e.swflush {
		return
	}
	e.stats[cpu].Flushes++
	cache := e.caches[cpu]
	block := cache.BlockOf(ref.Addr)
	present, wasDirty := cache.Invalidate(block)
	if present && wasDirty {
		e.stats[cpu].DirtyFlushes++
		e.applyOp(cpu, core.OpDirtyFlush, ref.Addr)
		return
	}
	e.stats[cpu].CleanFlushes++
	e.applyOp(cpu, core.OpCleanFlush, ref.Addr)
}
