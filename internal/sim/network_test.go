package sim

import (
	"errors"
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func TestMediumStrings(t *testing.T) {
	if MediumBus.String() != "bus" || MediumNetwork.String() != "network" {
		t.Error("medium names")
	}
	if Medium(9).String() == "" {
		t.Error("unknown medium must print")
	}
}

func TestNetworkMediumTimingSingleCPU(t *testing.T) {
	// One processor, 2-stage network (nproc<=4 -> stages=1 for 2...
	// NCPU=1 -> stages=1): clean miss costs 9+2n CPU, 6+2n network.
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{
		trace.NewRef(0, trace.IFetch, 0x1000, false), // instr 1 + clean fetch 9+2
		trace.NewRef(0, trace.IFetch, 0x1004, false), // instr 1
	}}
	res, err := Run(Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase, Medium: MediumNetwork}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerCPU[0].Cycles; got != 1+9+2+1 {
		t.Errorf("cycles = %d, want 13 (1 + clean fetch 11 + 1)", got)
	}
	if res.BusBusy != 8 {
		t.Errorf("network occupancy = %d, want 8 (6+2n, n=1)", res.BusBusy)
	}
}

func TestNetworkMediumRejectsSnoopy(t *testing.T) {
	tr := &trace.Trace{NCPU: 2, Refs: []trace.Ref{trace.NewRef(0, trace.Read, 1, false)}}
	for _, proto := range []Protocol{ProtoDragon, ProtoWriteInvalidate} {
		_, err := Run(Config{NCPU: 2, Cache: testCache, Protocol: proto, Medium: MediumNetwork}, tr)
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%v on network: want ErrBadConfig, got %v", proto, err)
		}
	}
	if _, err := Run(Config{NCPU: 1, Cache: testCache, Protocol: ProtoBase, Medium: Medium(7)}, tr.Restrict(1)); err == nil {
		t.Error("want error for unknown medium")
	}
}

func TestNetworkParallelismBeatsBusUnderLoad(t *testing.T) {
	// A 16-processor No-Cache workload saturates the bus; the
	// network's parallel links must deliver more power despite the
	// higher per-transaction cost.
	cfg := tracegen.DefaultConfig()
	cfg.NCPU = 16
	cfg.InstrPerCPU = 8000
	cfg.SharedFrac = 0.4
	cfg.LS = 0.4
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	bus, err := Run(Config{NCPU: 16, Cache: cache, Protocol: ProtoNoCache, Medium: MediumBus}, tr)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Run(Config{NCPU: 16, Cache: cache, Protocol: ProtoNoCache, Medium: MediumNetwork}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if net.Power() <= bus.Power() {
		t.Errorf("16-proc No-Cache: network power %.2f should beat saturated bus %.2f",
			net.Power(), bus.Power())
	}
}

func TestBusBeatsNetworkSingleCPUSim(t *testing.T) {
	// With one processor there is no contention and the network's
	// path-setup cost is pure overhead.
	cfg := tracegen.DefaultConfig()
	cfg.NCPU = 1
	cfg.InstrPerCPU = 5000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	bus, err := Run(Config{NCPU: 1, Cache: cache, Protocol: ProtoSoftwareFlush, Medium: MediumBus}, tr)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Run(Config{NCPU: 1, Cache: cache, Protocol: ProtoSoftwareFlush, Medium: MediumNetwork}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if bus.Power() <= net.Power() {
		t.Errorf("1-proc: bus power %.3f should beat network %.3f", bus.Power(), net.Power())
	}
}

func TestMultistageLinkConflicts(t *testing.T) {
	// Two processors hitting the same memory module must serialize on
	// the final-stage link; different modules on disjoint paths must
	// not. 4-CPU network (2 stages), block-interleaved modules.
	mk := func(cpu uint8, addr uint64) trace.Ref {
		return trace.NewRef(cpu, trace.Read, addr, false)
	}
	cache := CacheConfig{Size: 1024, BlockSize: 16, Assoc: 2}
	// Same module 0 (addresses 0x0 and 0x400 both have block%4 == 0).
	same := &trace.Trace{NCPU: 4, Refs: []trace.Ref{mk(0, 0x0), mk(1, 0x400)}}
	resSame, err := Run(Config{NCPU: 4, Cache: cache, Protocol: ProtoBase, Medium: MediumNetwork}, same)
	if err != nil {
		t.Fatal(err)
	}
	if resSame.BusWait == 0 {
		t.Error("same-module transactions should conflict")
	}
	// Modules 0 and 3 from sources 0 and 3: paths are link-disjoint
	// in a butterfly (source and destination bits both differ).
	diff := &trace.Trace{NCPU: 4, Refs: []trace.Ref{mk(0, 0x0), mk(3, 0x430)}}
	resDiff, err := Run(Config{NCPU: 4, Cache: cache, Protocol: ProtoBase, Medium: MediumNetwork}, diff)
	if err != nil {
		t.Fatal(err)
	}
	if resDiff.BusWait != 0 {
		t.Errorf("disjoint paths should not conflict (wait=%d)", resDiff.BusWait)
	}
}
