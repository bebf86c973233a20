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
			{CPU: 0, Kind: IFetch, Addr: 0x1000},
			{CPU: 1, Kind: IFetch, Addr: 0x2000},
			{CPU: 0, Kind: Read, Addr: 0x8000, Shared: true},
			{CPU: 1, Kind: Write, Addr: 0x8000, Shared: true},
			{CPU: 0, Kind: Read, Addr: 0x4000},
			{CPU: 0, Kind: Flush, Addr: 0x8000, Shared: true},
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
	bad := &Trace{NCPU: 1, Refs: []Ref{{CPU: 3, Kind: Read}}}
	if err := bad.Validate(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("want ErrBadTrace, got %v", err)
	}
	if err := (&Trace{NCPU: 0}).Validate(); err == nil {
		t.Error("want error for zero cpus")
	}
	badKind := &Trace{NCPU: 1, Refs: []Ref{{CPU: 0, Kind: Kind(7)}}}
	if err := badKind.Validate(); err == nil {
		t.Error("want error for bad kind")
	}
}

func TestPerCPUAndInterleave(t *testing.T) {
	tr := sample()
	streams := tr.PerCPU()
	if len(streams) != 2 {
		t.Fatalf("got %d streams", len(streams))
	}
	if len(streams[0]) != 4 || len(streams[1]) != 2 {
		t.Fatalf("stream lengths %d/%d, want 4/2", len(streams[0]), len(streams[1]))
	}
	merged := Interleave(streams)
	if merged.Len() != tr.Len() {
		t.Fatalf("merged %d records, want %d", merged.Len(), tr.Len())
	}
	// Round-robin: first records alternate 0,1,0,1 then 0,0.
	wantCPUs := []uint8{0, 1, 0, 1, 0, 0}
	for i, r := range merged.Refs {
		if r.CPU != wantCPUs[i] {
			t.Errorf("pos %d: cpu %d, want %d", i, r.CPU, wantCPUs[i])
		}
	}
	// Per-CPU order preserved.
	back := merged.PerCPU()
	for c := range streams {
		for i := range streams[c] {
			if back[c][i] != streams[c][i] {
				t.Errorf("cpu %d pos %d: order not preserved", c, i)
			}
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
			if int(r.CPU) >= ncpu {
				t.Errorf("ncpu %d: kept a record of cpu %d", ncpu, r.CPU)
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

// TestRefIs16Bytes pins the record layout: the simulator and every trace
// consumer stream over []Ref, so a field order that pads it back to 24
// bytes costs half again the memory traffic.
func TestRefIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 16 {
		t.Errorf("sizeof(Ref) = %d, want 16", got)
	}
}
