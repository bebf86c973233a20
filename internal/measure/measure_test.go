package measure

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"swcc/internal/sim"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

var cache64k = sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}

func TestExtractFromSyntheticTrace(t *testing.T) {
	cfg, err := tracegen.Preset("pops")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstrPerCPU = 40_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(tr, cache64k, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params
	if math.Abs(p.LS-cfg.LS) > 0.02 {
		t.Errorf("ls = %g, target %g", p.LS, cfg.LS)
	}
	if math.Abs(p.Shd-cfg.SharedFrac) > 0.03 {
		t.Errorf("shd = %g, target %g", p.Shd, cfg.SharedFrac)
	}
	// Read-only episodes suppress writes, so the effective write
	// fraction is WriteFrac scaled by the writing-episode share.
	wantWR := cfg.WriteFrac * (1 - cfg.ReadOnlyEpisodeFrac)
	if math.Abs(p.WR-wantWR) > 0.03 {
		t.Errorf("wr = %g, target %g", p.WR, wantWR)
	}
	if p.MsDat <= 0 || p.MsDat > 0.1 {
		t.Errorf("msdat = %g out of plausible range", p.MsDat)
	}
	if p.MsIns <= 0 || p.MsIns > 0.05 {
		t.Errorf("mains = %g out of plausible range", p.MsIns)
	}
	if p.MD < 0 || p.MD > 1 {
		t.Errorf("md = %g", p.MD)
	}
	if p.APL < 1 {
		t.Errorf("apl = %g", p.APL)
	}
	if !m.FlushDelimited {
		t.Error("pops preset emits flushes; extraction should use them")
	}
	if p.OPres <= 0 || p.OPres > 1 || p.OClean <= 0 || p.OClean > 1 {
		t.Errorf("snoop params out of range: opres=%g oclean=%g", p.OPres, p.OClean)
	}
	if p.NShd <= 0 || p.NShd > 3 {
		t.Errorf("nshd = %g out of range for 4 CPUs", p.NShd)
	}
}

func TestExtractLandsInTable7Ranges(t *testing.T) {
	// The presets substitute for the paper's traces, so the measured
	// parameters must land inside (or very near) the published
	// low..high ranges of Table 7 for the parameters the ranges were
	// derived from.
	for _, preset := range []string{"pops", "thor", "pero"} {
		cfg, err := tracegen.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		cfg.InstrPerCPU = 40_000
		tr, err := tracegen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Extract(tr, cache64k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Params
		checks := []struct {
			name   string
			v      float64
			lo, hi float64
		}{
			{"ls", p.LS, 0.15, 0.45},
			{"msdat", p.MsDat, 0.002, 0.035},
			{"mains", p.MsIns, 0.0005, 0.02},
			{"shd", p.Shd, 0.05, 0.45},
			{"wr", p.WR, 0.08, 0.45},
			{"oclean", p.OClean, 0.5, 1.0},
			{"opres", p.OPres, 0.3, 1.0},
		}
		for _, c := range checks {
			if c.v < c.lo || c.v > c.hi {
				t.Errorf("%s: %s = %g outside [%g, %g]", preset, c.name, c.v, c.lo, c.hi)
			}
		}
	}
}

func TestExtractEmptyTrace(t *testing.T) {
	tr := &trace.Trace{NCPU: 1}
	if _, err := Extract(tr, cache64k, 0.5); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("want ErrEmptyTrace, got %v", err)
	}
}

func TestExtractInvalidTrace(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{trace.NewRef(5, trace.Read, 0, false)}}
	if _, err := Extract(tr, cache64k, 0.5); err == nil {
		t.Error("want error for invalid trace")
	}
}

func TestAPLFromFlushesExact(t *testing.T) {
	// One CPU: 3 refs to a block (one write) then a flush; then 5 reads
	// and a flush. apl = (3+5)/2 = 4; mdshd = 1/2.
	mk := func(kind trace.Kind, addr uint64) trace.Ref {
		return trace.NewRef(0, kind, addr, true)
	}
	refs := []trace.Ref{
		trace.NewRef(0, trace.IFetch, 0x9990, false),
		mk(trace.Read, 0x100), mk(trace.Write, 0x104), mk(trace.Read, 0x108),
		mk(trace.Flush, 0x100),
		mk(trace.Read, 0x200), mk(trace.Read, 0x204), mk(trace.Read, 0x208),
		mk(trace.Read, 0x20c), mk(trace.Read, 0x200),
		mk(trace.Flush, 0x200),
	}
	tr := &trace.Trace{NCPU: 1, Refs: refs}
	var m Measurement
	if err := m.streamAnalysis(tr, tr.NCPU, 16); err != nil {
		t.Fatal(err)
	}
	if !m.FlushDelimited {
		t.Fatal("should use flush delimiting")
	}
	if m.Params.APL != 4 {
		t.Errorf("apl = %g, want 4", m.Params.APL)
	}
	if m.Params.MdShd != 0.5 {
		t.Errorf("mdshd = %g, want 0.5", m.Params.MdShd)
	}
	if m.Runs != 2 || m.RunRefs != 8 {
		t.Errorf("runs/refs = %d/%d, want 2/8", m.Runs, m.RunRefs)
	}
}

func TestAPLFromHandoffsExact(t *testing.T) {
	// No flushes: CPU0 makes 3 refs (one write) to block, CPU1 takes
	// over with 2 refs (one write), CPU0 returns with 1 read (no
	// write; excluded from apl but included in mdshd denominator).
	sh := func(cpu uint8, kind trace.Kind) trace.Ref {
		return trace.NewRef(cpu, kind, 0x100, true)
	}
	refs := []trace.Ref{
		trace.NewRef(0, trace.IFetch, 0x9990, false),
		sh(0, trace.Read), sh(0, trace.Write), sh(0, trace.Read),
		sh(1, trace.Write), sh(1, trace.Read),
		sh(0, trace.Read),
	}
	tr := &trace.Trace{NCPU: 2, Refs: refs}
	var m Measurement
	if err := m.streamAnalysis(tr, tr.NCPU, 16); err != nil {
		t.Fatal(err)
	}
	if m.FlushDelimited {
		t.Fatal("no flushes present")
	}
	// Write-runs: (cpu0, 3 refs) and (cpu1, 2 refs): apl = 5/2.
	if m.Params.APL != 2.5 {
		t.Errorf("apl = %g, want 2.5", m.Params.APL)
	}
	// All runs: 3 (two dirty, one clean): mdshd = 2/3.
	if math.Abs(m.Params.MdShd-2.0/3.0) > 1e-12 {
		t.Errorf("mdshd = %g, want 2/3", m.Params.MdShd)
	}
}

// TestAPLKeysOnCacheBlock: shared-block runs are the cache's blocks.
// With 64-byte blocks a flush of block 0x100 ends the run over all four
// of its 16-byte quarters, and a processor touching 0x120 takes block
// 0x100 over from another; with 8-byte blocks 0x100 and 0x108 are two
// blocks, each flushed or handed off on its own.
func TestAPLKeysOnCacheBlock(t *testing.T) {
	ins := func(cpu uint8) trace.Ref { return trace.NewRef(cpu, trace.IFetch, 0x9990, false) }
	sh := func(cpu uint8, kind trace.Kind, addr uint64) trace.Ref {
		return trace.NewRef(cpu, kind, addr, true)
	}
	for _, c := range []struct {
		name      string
		blockSize int
		refs      []trace.Ref
		runs      int
		apl       float64
		mdshd     float64
	}{
		{"flushes/64B", 64, []trace.Ref{
			sh(0, trace.Read, 0x100), sh(0, trace.Read, 0x110), sh(0, trace.Write, 0x120), sh(0, trace.Read, 0x130),
			sh(0, trace.Flush, 0x100),
		}, 1, 4, 1},
		{"flushes/8B", 8, []trace.Ref{
			sh(0, trace.Write, 0x100), sh(0, trace.Read, 0x108), sh(0, trace.Read, 0x108),
			sh(0, trace.Flush, 0x100), sh(0, trace.Flush, 0x108),
		}, 2, 1.5, 0.5},
		{"handoffs/64B", 64, []trace.Ref{
			sh(0, trace.Write, 0x100), sh(0, trace.Read, 0x110),
			sh(1, trace.Write, 0x120), sh(1, trace.Read, 0x130), sh(1, trace.Read, 0x100),
		}, 2, 2.5, 1},
		{"handoffs/8B", 8, []trace.Ref{
			sh(0, trace.Write, 0x100), sh(0, trace.Read, 0x100),
			sh(1, trace.Write, 0x108), sh(0, trace.Read, 0x100),
		}, 2, 2, 1},
	} {
		// Instruction fetches keep ls within [0,1].
		var refs []trace.Ref
		for range 8 {
			refs = append(refs, ins(0), ins(1))
		}
		tr := &trace.Trace{NCPU: 2, Refs: append(refs, c.refs...)}
		m, err := Extract(tr, sim.CacheConfig{Size: 1024, BlockSize: c.blockSize, Assoc: 2}, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Runs != c.runs || m.Params.APL != c.apl || m.Params.MdShd != c.mdshd {
			t.Errorf("%s: runs %d apl %g mdshd %g, want %d, %g, %g",
				c.name, m.Runs, m.Params.APL, m.Params.MdShd, c.runs, c.apl, c.mdshd)
		}
	}
}

// TestExtractPreparedMatchesRestrict: measuring the first n processors
// of a prepared trace in place equals measuring the copied restriction,
// for every preset and machine size.
func TestExtractPreparedMatchesRestrict(t *testing.T) {
	for _, preset := range tracegen.PresetNames() {
		cfg, err := tracegen.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		cfg.InstrPerCPU = 3000
		tr, err := tracegen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= tr.NCPU; n++ {
			got, gotErr := ExtractPrepared(p, n, cache64k, 0.5)
			want, wantErr := Extract(tr.Restrict(n), cache64k, 0.5)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: in place (%v) differs from the restricted trace's measurement (%v)", preset, n, gotErr, wantErr)
			}
		}
		for _, n := range []int{0, tr.NCPU + 1} {
			if _, err := ExtractPrepared(p, n, cache64k, 0.5); err == nil {
				t.Errorf("%s: machine size %d accepted", preset, n)
			}
		}
	}
}

func TestAPLClampedToOne(t *testing.T) {
	// A single shared write then a flush gives apl = 1; degenerate
	// traces below 1 clamp.
	refs := []trace.Ref{
		trace.NewRef(0, trace.IFetch, 0x9990, false),
		trace.NewRef(0, trace.Flush, 0x100, true), // flush with no refs: ignored
	}
	tr := &trace.Trace{NCPU: 1, Refs: refs}
	var m Measurement
	if err := m.streamAnalysis(tr, tr.NCPU, 16); err != nil {
		t.Fatal(err)
	}
	if m.Params.APL < 1 {
		t.Errorf("apl = %g, must be clamped to >= 1", m.Params.APL)
	}
}

func TestStabilityOnStationaryTrace(t *testing.T) {
	// The synthetic workloads are statistically stationary: split-half
	// measurement must agree tightly on the stream parameters.
	cfg, err := tracegen.Preset("pops")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstrPerCPU = 40_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stability(tr, cache64k, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 11 {
		t.Fatalf("got %d parameters", len(st))
	}
	for _, p := range []string{"ls", "shd", "wr"} {
		if st[p] > 0.05 {
			t.Errorf("%s split-half divergence %.3f > 5%%", p, st[p])
		}
	}
	for p, v := range st {
		if v < 0 {
			t.Errorf("%s divergence negative: %g", p, v)
		}
	}
}

func TestStabilityErrors(t *testing.T) {
	short := &trace.Trace{NCPU: 1, Refs: []trace.Ref{trace.NewRef(0, trace.IFetch, 0, false)}}
	if _, err := Stability(short, cache64k, 0.25); err == nil {
		t.Error("want error for too-short trace")
	}
	bad := &trace.Trace{NCPU: 1, Refs: make([]trace.Ref, 8)}
	bad.Refs[0] = trace.NewRef(9, trace.IFetch, 0, false)
	if _, err := Stability(bad, cache64k, 0.25); err == nil {
		t.Error("want error for invalid trace")
	}
}

// TestStabilityBadRecordIsErrBadTrace: Stability validates each record
// once, through its half's Prepare, and a malformed record in either
// half fails the call with an error wrapping trace.ErrBadTrace.
func TestStabilityBadRecordIsErrBadTrace(t *testing.T) {
	for _, at := range []int{1, 6} {
		bad := &trace.Trace{NCPU: 1, Refs: make([]trace.Ref, 8)}
		bad.Refs[at] = trace.NewRef(1, trace.Read, 0, false)
		if _, err := Stability(bad, cache64k, 0.25); !errors.Is(err, trace.ErrBadTrace) {
			t.Errorf("bad record %d: err = %v, want trace.ErrBadTrace", at, err)
		}
	}
	if _, err := Stability(&trace.Trace{NCPU: 0}, cache64k, 0.25); !errors.Is(err, trace.ErrBadTrace) {
		t.Errorf("ncpu 0: err = %v, want trace.ErrBadTrace", err)
	}
}

// TestWithShadowsNeedsBaseAndDragon: the derivation reads miss rates
// from the Base shadow and snoop statistics from the Dragon one, so
// swapped or foreign results are an error, not silently wrong
// parameters; the stream measurement it completes stays unchanged.
func TestWithShadowsNeedsBaseAndDragon(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: make([]trace.Ref, 8)}
	p, err := sim.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(tr, 1, cache64k.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	before := *stream
	run := func(proto sim.Protocol) *sim.Result {
		res, err := p.Run(sim.Config{Cache: cache64k, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, dragon := run(sim.ProtoBase), run(sim.ProtoDragon)
	if _, err := stream.WithShadows(dragon, base); err == nil {
		t.Error("swapped shadows accepted")
	}
	m, err := stream.WithShadows(base, dragon)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base != base || m.Dragon != dragon || !reflect.DeepEqual(*stream, before) {
		t.Error("WithShadows must reference the given results and leave the stream measurement unchanged")
	}
}

// TestWarmupFractionNaN: NaN passes a range check written as
// "f < 0 || f >= 1", and int(NaN*len) would reach the simulator as a
// warmup of -9223372036854775808 records; the error must name the
// fraction instead.
func TestWarmupFractionNaN(t *testing.T) {
	tr := &trace.Trace{NCPU: 1, Refs: make([]trace.Ref, 8)}
	const want = "measure: warmup fraction NaN not in [0,1)"
	if _, err := Extract(tr, cache64k, math.NaN()); err == nil || err.Error() != want {
		t.Errorf("Extract: got %v, want %q", err, want)
	}
	if _, err := Stability(tr, cache64k, math.NaN()); err == nil || err.Error() != want {
		t.Errorf("Stability: got %v, want %q", err, want)
	}
}

func TestExtractModelAgreementSingleCPU(t *testing.T) {
	// With one processor there is no contention and no sharing
	// overhead in Base; the model fed with measured parameters must
	// reproduce the simulator's utilization almost exactly.
	cfg := tracegen.DefaultConfig()
	cfg.NCPU = 1
	cfg.SharedFrac = 0
	cfg.EmitFlush = false
	cfg.InstrPerCPU = 50_000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(tr, cache64k, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	simU := m.Base.Utilization()
	// Model: U = 1/c at one processor.
	d := modelDemand(t, m)
	modelU := 1 / d
	if math.Abs(simU-modelU)/modelU > 0.01 {
		t.Errorf("single-CPU: sim U %g vs model U %g differ > 1%%", simU, modelU)
	}
}

// modelDemand computes the Base-scheme c from measured params.
func modelDemand(t *testing.T, m *Measurement) float64 {
	t.Helper()
	p := m.Params
	miss := p.LS*p.MsDat + p.MsIns
	return 1 + miss*(1-p.MD)*10 + miss*p.MD*14
}
