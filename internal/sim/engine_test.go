package sim

import (
	"errors"
	"math"
	"testing"

	"swcc/internal/core"
	"swcc/internal/trace"
)

var testCache = CacheConfig{Size: 1024, BlockSize: 16, Assoc: 2}

func run(t *testing.T, proto Protocol, tr *trace.Trace) *Result {
	t.Helper()
	res, err := Run(Config{NCPU: tr.NCPU, Cache: testCache, Protocol: proto}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBusAcquire(t *testing.T) {
	var b Bus
	if g := b.Acquire(5, 0); g != 5 || b.Transactions != 0 {
		t.Error("zero hold must be free")
	}
	if g := b.Acquire(0, 7); g != 0 {
		t.Errorf("idle bus grant = %d", g)
	}
	if g := b.Acquire(3, 4); g != 7 {
		t.Errorf("busy bus grant = %d, want 7", g)
	}
	if b.WaitCycles != 4 {
		t.Errorf("wait = %d, want 4", b.WaitCycles)
	}
	if b.BusyCycles != 11 || b.Transactions != 2 {
		t.Errorf("busy/transactions = %d/%d", b.BusyCycles, b.Transactions)
	}
	if b.FreeAt() != 11 {
		t.Errorf("freeAt = %d", b.FreeAt())
	}
	if u := b.Utilization(22); u != 0.5 {
		t.Errorf("utilization = %g", u)
	}
	if b.Utilization(0) != 0 {
		t.Error("zero makespan utilization")
	}
}

func TestProtocolNames(t *testing.T) {
	for name, want := range map[string]Protocol{
		"base": ProtoBase, "dragon": ProtoDragon, "nocache": ProtoNoCache,
		"swflush": ProtoSoftwareFlush, "wi": ProtoWriteInvalidate,
		// Registry aliases resolve too: mesi is the write-invalidate
		// scheme's hardware-protocol alias.
		"mesi": ProtoWriteInvalidate, "no-cache": ProtoNoCache,
	} {
		got, err := ProtocolByName(name)
		if err != nil || got != want {
			t.Errorf("%q -> %v, %v", name, got, err)
		}
	}
	if _, err := ProtocolByName("firefly"); err == nil {
		t.Error("want error for unregistered name")
	}
	// Registered but analytic-only: resolvable by the model, not the
	// trace-driven simulator.
	if _, err := ProtocolByName("directory"); err == nil {
		t.Error("want error for analytic-only scheme")
	}
	if ProtoDragon.String() != "Dragon" || Protocol(99).String() == "" {
		t.Error("protocol strings")
	}
}

// TestProtocolNamesRegistered: every protocol's name is its scheme's
// canonical name in the core registry, and resolves back to it.
func TestProtocolNamesRegistered(t *testing.T) {
	for p := range protoNames {
		proto := Protocol(p)
		info, ok := core.SchemeInfoByName(proto.String())
		if !ok || info.Scheme.Name() != proto.String() {
			t.Errorf("%d: %q is not a canonical registered scheme name", p, proto.String())
		}
		if got, err := ProtocolByName(proto.String()); err != nil || got != proto {
			t.Errorf("ProtocolByName(%q) = %v, %v; want %v", proto.String(), got, err, proto)
		}
	}
}

// Single-CPU timing: verify exact Table 1 cycle accounting.
func TestBaseTimingExact(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		{Kind: trace.IFetch, Addr: 0x1000}, // instr 1 + clean miss 10
		{Kind: trace.IFetch, Addr: 0x1004}, // instr 1 (same block hit)
		{Kind: trace.Read, Addr: 0x2000},   // clean miss 10
		{Kind: trace.Read, Addr: 0x2008},   // hit, free
	}}
	res := run(t, ProtoBase, tr)
	s := res.PerCPU[0]
	if s.Cycles != 22 {
		t.Errorf("cycles = %d, want 22", s.Cycles)
	}
	if s.Instructions != 2 || s.InstrMisses != 1 || s.DataMisses != 1 {
		t.Errorf("counts: %+v", s)
	}
	if res.BusBusy != 14 {
		t.Errorf("bus busy = %d, want 14 (two clean misses)", res.BusBusy)
	}
	if got := s.Utilization(); !approxEq(got, 2.0/22.0) {
		t.Errorf("utilization = %g", got)
	}
}

func TestDirtyReplacementTiming(t *testing.T) {
	// 16-byte cache, one line: a write then a conflicting read forces
	// a dirty write-back (14 cycles).
	cfg := Config{NCPU: 1, Cache: CacheConfig{Size: 16, BlockSize: 16, Assoc: 1}, Protocol: ProtoBase}
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		{Kind: trace.Write, Addr: 0x0},   // clean miss 10, line dirty
		{Kind: trace.Read, Addr: 0x100},  // dirty miss 14
		{Kind: trace.Write, Addr: 0x200}, // clean miss 10 (victim clean)
	}}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerCPU[0]
	if s.Cycles != 34 {
		t.Errorf("cycles = %d, want 34", s.Cycles)
	}
	if s.DirtyReplacements != 1 {
		t.Errorf("dirty replacements = %d, want 1", s.DirtyReplacements)
	}
}

func TestNoCacheBypass(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		{Kind: trace.Read, Addr: 0x100, Shared: true},  // read-through 5
		{Kind: trace.Write, Addr: 0x100, Shared: true}, // write-through 2
		{Kind: trace.Read, Addr: 0x100, Shared: true},  // read-through again (never cached)
		{Kind: trace.Read, Addr: 0x900},                // private: clean miss 10
	}}
	res := run(t, ProtoNoCache, tr)
	s := res.PerCPU[0]
	if s.ReadThroughs != 2 || s.WriteThroughs != 1 {
		t.Errorf("throughs = %d/%d", s.ReadThroughs, s.WriteThroughs)
	}
	if s.Cycles != 5+2+5+10 {
		t.Errorf("cycles = %d, want 22", s.Cycles)
	}
	if s.DataMisses != 1 {
		t.Errorf("data misses = %d, want 1 (shared refs bypass)", s.DataMisses)
	}
}

func TestSoftwareFlushSemantics(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		{Kind: trace.Write, Addr: 0x100, Shared: true}, // clean miss 10, dirty line
		{Kind: trace.Flush, Addr: 0x100, Shared: true}, // dirty flush 6
		{Kind: trace.Read, Addr: 0x100, Shared: true},  // miss again (was flushed): 10
		{Kind: trace.Flush, Addr: 0x100, Shared: true}, // clean flush 1
		{Kind: trace.Flush, Addr: 0x500, Shared: true}, // absent: clean flush 1
	}}
	res := run(t, ProtoSoftwareFlush, tr)
	s := res.PerCPU[0]
	if s.DirtyFlushes != 1 || s.CleanFlushes != 2 {
		t.Errorf("flushes clean/dirty = %d/%d, want 2/1", s.CleanFlushes, s.DirtyFlushes)
	}
	if s.Cycles != 10+6+10+1+1 {
		t.Errorf("cycles = %d, want 28", s.Cycles)
	}
	if s.Flushes != 3 {
		t.Errorf("flush count = %d", s.Flushes)
	}
	if s.Instructions != 0 {
		t.Error("flushes must not count as productive instructions")
	}
}

func TestFlushIgnoredByOtherProtocols(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		{Kind: trace.Write, Addr: 0x100, Shared: true},
		{Kind: trace.Flush, Addr: 0x100, Shared: true},
		{Kind: trace.Read, Addr: 0x100, Shared: true},
	}}
	for _, proto := range []Protocol{ProtoBase, ProtoDragon, ProtoWriteInvalidate} {
		res := run(t, proto, tr)
		s := res.PerCPU[0]
		if s.Flushes != 0 {
			t.Errorf("%v: flushes = %d", proto, s.Flushes)
		}
		if s.DataMisses != 1 {
			t.Errorf("%v: data misses = %d, want 1 (flush must not purge)", proto, s.DataMisses)
		}
	}
}

func TestDragonCacheToCacheAndBroadcast(t *testing.T) {
	// CPU0 dirties block A; CPU1 then reads it (cache-supplied) and
	// writes it (broadcast + cycle steal on CPU0).
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{
		{CPU: 0, Kind: trace.Write, Addr: 0x100, Shared: true},
		{CPU: 1, Kind: trace.Read, Addr: 0x100, Shared: true},
		{CPU: 1, Kind: trace.Write, Addr: 0x104, Shared: true},
	}}
	res := run(t, ProtoDragon, tr)
	s0, s1 := res.PerCPU[0], res.PerCPU[1]
	// CPU0: clean miss 10 cycles, then +1 stolen = 11.
	if s0.Cycles != 11 {
		t.Errorf("cpu0 cycles = %d, want 11", s0.Cycles)
	}
	if s0.StolenCycles != 1 {
		t.Errorf("cpu0 stolen = %d, want 1", s0.StolenCycles)
	}
	// CPU1: read misses; bus is busy until 7, so wait 7, then
	// cache-supplied clean miss 9 -> 16; write hit + broadcast 2 -> 18.
	if s1.Cycles != 18 {
		t.Errorf("cpu1 cycles = %d, want 18", s1.Cycles)
	}
	if s1.CacheSupplied != 1 {
		t.Errorf("cache supplied = %d, want 1", s1.CacheSupplied)
	}
	if s1.Broadcasts != 1 {
		t.Errorf("broadcasts = %d, want 1", s1.Broadcasts)
	}
	if s1.BusWait != 7 {
		t.Errorf("cpu1 bus wait = %d, want 7", s1.BusWait)
	}
	// Snoop stats: CPU1's two shared refs both saw the block present
	// elsewhere; its miss saw a dirty copy.
	if res.Snoop.SharedRefs != 3 || res.Snoop.PresentElsewhere != 2 {
		t.Errorf("snoop shared/present = %d/%d, want 3/2", res.Snoop.SharedRefs, res.Snoop.PresentElsewhere)
	}
	if res.Snoop.SharedMisses != 2 || res.Snoop.DirtyElsewhere != 1 {
		t.Errorf("snoop misses/dirty = %d/%d, want 2/1", res.Snoop.SharedMisses, res.Snoop.DirtyElsewhere)
	}
	if got := res.Snoop.NShd(); got != 1 {
		t.Errorf("nshd = %g, want 1", got)
	}
	// After the cache-to-cache supply, CPU0's copy is clean.
	if res.Snoop.OClean() != 0.5 {
		t.Errorf("oclean = %g, want 0.5", res.Snoop.OClean())
	}
}

func TestWriteInvalidateRemovesCopies(t *testing.T) {
	// CPU0 reads block A (clean copy); CPU1 writes it: CPU1 misses,
	// then invalidates CPU0's copy. A second CPU0 read must miss again.
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{
		{CPU: 0, Kind: trace.Read, Addr: 0x100, Shared: true},
		{CPU: 1, Kind: trace.Write, Addr: 0x100, Shared: true},
		{CPU: 0, Kind: trace.Read, Addr: 0x100, Shared: true},
		{CPU: 0, Kind: trace.Read, Addr: 0x200, Shared: false},
		{CPU: 0, Kind: trace.Read, Addr: 0x300, Shared: false},
	}}
	res := run(t, ProtoWriteInvalidate, tr)
	s0 := res.PerCPU[0]
	if s0.DataMisses != 4 {
		t.Errorf("cpu0 data misses = %d, want 4 (invalidation forces re-miss)", s0.DataMisses)
	}
	if res.PerCPU[1].Broadcasts != 1 {
		t.Errorf("cpu1 invalidations = %d, want 1", res.PerCPU[1].Broadcasts)
	}
}

func TestDragonVsInvalidateOnPingPong(t *testing.T) {
	// Alternating writes by two CPUs to one block: Dragon pays one
	// 1-cycle-bus broadcast per write; Write-Invalidate forces a full
	// miss each time. Dragon must finish faster.
	// Ifetches between the writes keep the clocks advancing so the
	// writes genuinely alternate in time (as they would in a real
	// instruction stream).
	refs := []trace.Ref{
		{CPU: 0, Kind: trace.Read, Addr: 0x100, Shared: true},
		{CPU: 1, Kind: trace.Read, Addr: 0x100, Shared: true},
	}
	for i := 0; i < 50; i++ {
		refs = append(refs,
			trace.Ref{CPU: 0, Kind: trace.IFetch, Addr: 0x1000},
			trace.Ref{CPU: 0, Kind: trace.Write, Addr: 0x100, Shared: true},
			trace.Ref{CPU: 1, Kind: trace.IFetch, Addr: 0x2000},
			trace.Ref{CPU: 1, Kind: trace.Write, Addr: 0x100, Shared: true},
		)
	}
	tr := &trace.Trace{NCPU: 2, Refs: refs}
	dragon := run(t, ProtoDragon, tr)
	wi := run(t, ProtoWriteInvalidate, tr)
	if dragon.Makespan >= wi.Makespan {
		t.Errorf("ping-pong: Dragon makespan %d should beat Write-Invalidate %d",
			dragon.Makespan, wi.Makespan)
	}
}

func TestRunErrors(t *testing.T) {
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{{CPU: 1, Kind: trace.Read}}}
	if _, err := Run(Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase}, tr); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ncpu too small: %v", err)
	}
	if _, err := Run(Config{NCPU: 2, Cache: CacheConfig{Size: 100, BlockSize: 16, Assoc: 1}, Protocol: ProtoBase}, tr); err == nil {
		t.Error("want error for bad cache config")
	}
	if _, err := Run(Config{NCPU: 2, Cache: testCache, Protocol: Protocol(42)}, tr); err == nil {
		t.Error("want error for bad protocol")
	}
	bad := &trace.Trace{NCPU: 1, Refs: []trace.Ref{{CPU: 5, Kind: trace.Read}}}
	if _, err := Run(Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase}, bad); err == nil {
		t.Error("want error for invalid trace")
	}
}

func TestRunDefaultsNCPUFromTrace(t *testing.T) {
	tr := &trace.Trace{NCPU: 3, Refs: []trace.Ref{{CPU: 2, Kind: trace.Read, Addr: 0x10}}}
	res, err := Run(Config{Cache: testCache, Protocol: ProtoBase}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCPU) != 3 {
		t.Errorf("per-cpu stats = %d, want 3", len(res.PerCPU))
	}
}

func TestResultAggregates(t *testing.T) {
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{
		{CPU: 0, Kind: trace.IFetch, Addr: 0x1000},
		{CPU: 1, Kind: trace.IFetch, Addr: 0x2000},
		{CPU: 0, Kind: trace.Read, Addr: 0x3000},
	}}
	res := run(t, ProtoBase, tr)
	tot := res.Totals()
	if tot.Instructions != 2 || tot.DataMisses != 1 || tot.InstrMisses != 2 {
		t.Errorf("totals wrong: %+v", tot)
	}
	if res.Makespan == 0 || res.BusUtilization() <= 0 || res.BusUtilization() > 1 {
		t.Errorf("makespan/bus util: %d / %g", res.Makespan, res.BusUtilization())
	}
	if math.Abs(res.Power()-2*res.Utilization()) > 1e-12 {
		t.Error("power != ncpu * mean utilization")
	}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
