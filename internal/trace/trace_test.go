package trace

import (
	"errors"
	"testing"
	"unsafe"
)

func sample() *Trace {
	return &Trace{
		NCPU: 2,
		Refs: []Ref{
			NewRef(0, IFetch, 0x1000, false),
			NewRef(1, IFetch, 0x2000, false),
			NewRef(0, Read, 0x8000, true),
			NewRef(1, Write, 0x8000, true),
			NewRef(0, Read, 0x4000, false),
			NewRef(0, Flush, 0x8000, true),
		},
	}
}

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || Read.String() != "read" ||
		Write.String() != "write" || Flush.String() != "flush" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must still print")
	}
	if !Read.IsData() || !Write.IsData() || IFetch.IsData() || Flush.IsData() {
		t.Error("IsData wrong")
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Error(err)
	}
	bad := &Trace{NCPU: 1, Refs: []Ref{NewRef(3, Read, 0, false)}}
	if err := bad.Validate(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("want ErrBadTrace, got %v", err)
	}
	if err := (&Trace{NCPU: 0}).Validate(); err == nil {
		t.Error("want error for zero cpus")
	}
}

// TestPerCPUAndInterleave checks Interleave on hand-built streams of
// unequal length, one of them empty: one reference per live processor
// per turn in processor order, an exhausted stream dropping out of later
// turns, and each processor's own order preserved.
func TestPerCPUAndInterleave(t *testing.T) {
	ref := func(cpu uint8, addr uint64) Ref { return NewRef(cpu, Read, addr, false) }
	streams := [][]Ref{
		{ref(0, 0x10), ref(0, 0x11), ref(0, 0x12)},
		{ref(1, 0x20)},
		nil,
		{ref(3, 0x30), ref(3, 0x31)},
	}
	merged := Interleave(streams)
	if merged.NCPU != len(streams) {
		t.Errorf("NCPU %d, want %d", merged.NCPU, len(streams))
	}
	want := []Ref{
		ref(0, 0x10), ref(1, 0x20), ref(3, 0x30),
		ref(0, 0x11), ref(3, 0x31),
		ref(0, 0x12),
	}
	if len(merged.Refs) != len(want) {
		t.Fatalf("merged %d records, want %d", len(merged.Refs), len(want))
	}
	for i := range want {
		if merged.Refs[i] != want[i] {
			t.Errorf("pos %d: %+v, want %+v", i, merged.Refs[i], want[i])
		}
	}
}

func TestRestrict(t *testing.T) {
	tr := sample()
	for ncpu, want := range []int{0, 4, 6, 6} {
		sub := tr.Restrict(ncpu)
		if got := tr.RestrictedLen(ncpu); got != want || sub.Len() != want {
			t.Errorf("ncpu %d: RestrictedLen %d, Restrict kept %d records, want %d", ncpu, got, sub.Len(), want)
		}
		for _, r := range sub.Refs {
			if int(r.CPU()) >= ncpu {
				t.Errorf("ncpu %d: kept a record of cpu %d", ncpu, r.CPU())
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	s, err := ComputeStats(sample(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 6 || s.NCPU != 2 {
		t.Errorf("total/ncpu = %d/%d", s.Total, s.NCPU)
	}
	if s.ByKind[IFetch] != 2 || s.ByKind[Read] != 2 || s.ByKind[Write] != 1 || s.ByKind[Flush] != 1 {
		t.Errorf("kind counts %v", s.ByKind)
	}
	if s.ByCPU[0] != 4 || s.ByCPU[1] != 2 {
		t.Errorf("cpu counts %v", s.ByCPU)
	}
	if s.SharedData != 2 {
		t.Errorf("shared data = %d, want 2 (flush is not data)", s.SharedData)
	}
	if s.UniqueBlocks != 4 {
		t.Errorf("unique blocks = %d, want 4", s.UniqueBlocks)
	}
	if got := s.LoadStoreFraction(); got != 1.5 {
		t.Errorf("ls = %g, want 1.5", got)
	}
	if got := s.SharedFraction(); !almost(got, 2.0/3.0) {
		t.Errorf("shd = %g, want 2/3", got)
	}
	if got := s.WriteFraction(); !almost(got, 1.0/3.0) {
		t.Errorf("wr = %g, want 1/3", got)
	}
}

func TestComputeStatsBadBlockSize(t *testing.T) {
	if _, err := ComputeStats(sample(), 0); err == nil {
		t.Error("want error for zero block size")
	}
	if _, err := ComputeStats(sample(), 12); err == nil {
		t.Error("want error for non-power-of-two block size")
	}
}

func TestStatsEmptyTrace(t *testing.T) {
	s, err := ComputeStats(&Trace{NCPU: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadStoreFraction() != 0 || s.SharedFraction() != 0 || s.WriteFraction() != 0 {
		t.Error("empty trace fractions must be zero")
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestRefIs8Bytes pins the packed record: the simulator and every trace
// consumer stream over []Ref, and the largest trace dominates a
// regeneration's peak heap, so a record that grows back to a 16-byte
// struct doubles both.
func TestRefIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Ref(0)); got != 8 {
		t.Errorf("sizeof(Ref) = %d, want 8", got)
	}
}

// TestNewRefRoundTrip checks that every field comes back out of the
// packed record unchanged and leaves the others alone, at the extremes
// of each field.
func TestNewRefRoundTrip(t *testing.T) {
	for k := IFetch; k < numKinds; k++ {
		for _, cpu := range []uint8{0, 255} {
			for _, shared := range []bool{false, true} {
				for _, addr := range []uint64{0, MaxAddr} {
					r := NewRef(cpu, k, addr, shared)
					if r.Kind() != k || r.CPU() != cpu || r.Shared() != shared || r.Addr() != addr {
						t.Errorf("NewRef(%d, %s, %#x, %t) reads back as %s", cpu, k, addr, shared, r)
					}
				}
			}
		}
	}
}

func TestNewRefPanicsAboveMaxAddr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRef accepted an address above MaxAddr")
		}
	}()
	NewRef(0, Read, MaxAddr+1, false)
}
