package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
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

// TestProtocolNamesRegistered: every protocol's scheme is registered
// under its own canonical name, and that name resolves back to the
// protocol. An unknown protocol has no scheme.
func TestProtocolNamesRegistered(t *testing.T) {
	for p := range protoSchemes {
		proto := Protocol(p)
		s := proto.Scheme()
		info, ok := core.SchemeInfoByName(s.Name())
		if !ok || info.Scheme != s || proto.String() != s.Name() {
			t.Errorf("%d: %q (%T) is not a canonical registered scheme", p, proto.String(), s)
		}
		if got, err := ProtocolByName(proto.String()); err != nil || got != proto {
			t.Errorf("ProtocolByName(%q) = %v, %v; want %v", proto.String(), got, err, proto)
		}
	}
	if s := Protocol(len(protoSchemes)).Scheme(); s != nil {
		t.Errorf("unknown protocol has scheme %v", s)
	}
	_, err := ProtocolByName("directory")
	for p := range protoSchemes {
		if name := Protocol(p).String(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("analytic-only error %v does not list simulatable %s", err, name)
		}
	}
}

// Single-CPU timing: verify exact Table 1 cycle accounting.
func TestBaseTimingExact(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		trace.NewRef(0, trace.IFetch, 0x1000, false), // instr 1 + clean miss 10
		trace.NewRef(0, trace.IFetch, 0x1004, false), // instr 1 (same block hit)
		trace.NewRef(0, trace.Read, 0x2000, false),   // clean miss 10
		trace.NewRef(0, trace.Read, 0x2008, false),   // hit, free
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
		trace.NewRef(0, trace.Write, 0x0, false),   // clean miss 10, line dirty
		trace.NewRef(0, trace.Read, 0x100, false),  // dirty miss 14
		trace.NewRef(0, trace.Write, 0x200, false), // clean miss 10 (victim clean)
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
		trace.NewRef(0, trace.Read, 0x100, true),  // read-through 5
		trace.NewRef(0, trace.Write, 0x100, true), // write-through 2
		trace.NewRef(0, trace.Read, 0x100, true),  // read-through again (never cached)
		trace.NewRef(0, trace.Read, 0x900, false), // private: clean miss 10
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
		trace.NewRef(0, trace.Write, 0x100, true), // clean miss 10, dirty line
		trace.NewRef(0, trace.Flush, 0x100, true), // dirty flush 6
		trace.NewRef(0, trace.Read, 0x100, true),  // miss again (was flushed): 10
		trace.NewRef(0, trace.Flush, 0x100, true), // clean flush 1
		trace.NewRef(0, trace.Flush, 0x500, true), // absent: clean flush 1
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
		trace.NewRef(0, trace.Write, 0x100, true),
		trace.NewRef(0, trace.Flush, 0x100, true),
		trace.NewRef(0, trace.Read, 0x100, true),
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
		trace.NewRef(0, trace.Write, 0x100, true),
		trace.NewRef(1, trace.Read, 0x100, true),
		trace.NewRef(1, trace.Write, 0x104, true),
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
		trace.NewRef(0, trace.Read, 0x100, true),
		trace.NewRef(1, trace.Write, 0x100, true),
		trace.NewRef(0, trace.Read, 0x100, true),
		trace.NewRef(0, trace.Read, 0x200, false),
		trace.NewRef(0, trace.Read, 0x300, false),
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
		trace.NewRef(0, trace.Read, 0x100, true),
		trace.NewRef(1, trace.Read, 0x100, true),
	}
	for i := 0; i < 50; i++ {
		refs = append(refs,
			trace.NewRef(0, trace.IFetch, 0x1000, false),
			trace.NewRef(0, trace.Write, 0x100, true),
			trace.NewRef(1, trace.IFetch, 0x2000, false),
			trace.NewRef(1, trace.Write, 0x100, true),
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
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{trace.NewRef(1, trace.Read, 0, false)}}
	// A machine smaller than the trace runs its first processors: here
	// processor 0, which has no records.
	small := Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase}
	got, err := Run(small, tr)
	if err != nil {
		t.Fatalf("ncpu smaller than the trace: %v", err)
	}
	if want, _ := Run(small, tr.Restrict(1)); !reflect.DeepEqual(got, want) {
		t.Errorf("ncpu smaller than the trace: %+v, want the restricted run's %+v", got, want)
	}
	if _, err := Run(Config{NCPU: -1, Cache: testCache, Protocol: ProtoBase}, tr); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative ncpu: %v", err)
	}
	// WarmupRefs counts simulated records only: tr has one record, but
	// none of processor 0's.
	small.WarmupRefs = 1
	if _, err := Run(small, tr); !errors.Is(err, ErrBadConfig) {
		t.Errorf("warmup past the simulated records: %v", err)
	}
	if _, err := Run(Config{NCPU: 2, Cache: CacheConfig{Size: 100, BlockSize: 16, Assoc: 1}, Protocol: ProtoBase}, tr); err == nil {
		t.Error("want error for bad cache config")
	}
	if _, err := Run(Config{NCPU: 2, Cache: testCache, Protocol: Protocol(42)}, tr); err == nil {
		t.Error("want error for bad protocol")
	}
	bad := &trace.Trace{NCPU: 1, Refs: []trace.Ref{trace.NewRef(5, trace.Read, 0, false)}}
	if _, err := Run(Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase}, bad); err == nil {
		t.Error("want error for invalid trace")
	}
	// A malformed record fails the run with t.Validate's error even
	// when it belongs to a processor the run does not simulate, and
	// the first malformed record is the one named.
	for _, bad := range []*trace.Trace{
		{NCPU: 2, Refs: []trace.Ref{trace.NewRef(0, trace.Read, 0, false), trace.NewRef(2, trace.Read, 0, false), trace.NewRef(3, trace.Read, 0, false)}},
		{NCPU: 2, Refs: []trace.Ref{trace.NewRef(2, trace.Write, 0, false), trace.NewRef(1, trace.Read, 0, false), trace.NewRef(255, trace.Flush, 0, false)}},
		{NCPU: 0},
	} {
		want := bad.Validate()
		for _, ncpu := range []int{0, 1, 2} {
			_, err := Run(Config{NCPU: ncpu, Cache: testCache, Protocol: ProtoBase}, bad)
			if !errors.Is(err, trace.ErrBadTrace) || err.Error() != want.Error() {
				t.Errorf("ncpu %d on a malformed trace: %v, want %v", ncpu, err, want)
			}
		}
	}
}

// TestRunClockBound checks the guard that keeps clocks below 2^56, the
// most the scheduler's clock<<8 | processor key holds: it passes a
// full-size trace on the largest machine at the paper's block size, and
// rejects a run whose blocks cost enough cycles to reach the limit.
func TestRunClockBound(t *testing.T) {
	for _, medium := range []Medium{MediumBus, MediumNetwork} {
		e := &engine{cfg: Config{NCPU: trace.MaxNCPU, Cache: testCache, Medium: medium}}
		if medium == MediumBus {
			e.costs = core.BusCostsForBlock(testCache.BlockSize / 4)
		} else {
			e.costs = core.NetworkCostsForBlock(newMultistage(trace.MaxNCPU, testCache.BlockSize).stages, testCache.BlockSize/4)
		}
		e.prepare()
		if err := e.checkClockBound(math.MaxInt32, trace.MaxNCPU); err != nil {
			t.Errorf("%v: %v", medium, err)
		}
	}
	tr := &trace.Trace{NCPU: 1, Refs: make([]trace.Ref, 64)}
	huge := CacheConfig{Size: 1 << 50, BlockSize: 1 << 50, Assoc: 1}
	if _, err := Run(Config{Cache: huge, Protocol: ProtoBase}, tr); !errors.Is(err, ErrBadConfig) {
		t.Errorf("64 records of 2^48-word blocks: %v, want ErrBadConfig", err)
	}
}

func TestRunDefaultsNCPUFromTrace(t *testing.T) {
	tr := &trace.Trace{NCPU: 3, Refs: []trace.Ref{trace.NewRef(2, trace.Read, 0x10, false)}}
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
		trace.NewRef(0, trace.IFetch, 0x1000, false),
		trace.NewRef(1, trace.IFetch, 0x2000, false),
		trace.NewRef(0, trace.Read, 0x3000, false),
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
