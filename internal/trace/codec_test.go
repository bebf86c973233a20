package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NCPU != tr.NCPU || len(got.Refs) != len(tr.Refs) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.NCPU, len(got.Refs), tr.NCPU, len(tr.Refs))
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Errorf("ref %d: %+v != %+v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	tr := &Trace{NCPU: 8}
	for i := 0; i < 10000; i++ {
		tr.Refs = append(tr.Refs, NewRef(
			uint8(rng.IntN(8)),
			Kind(rng.IntN(4)),
			rng.Uint64()>>uint(64-53+rng.IntN(40)),
			rng.IntN(2) == 0,
		))
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

func TestBinaryCompression(t *testing.T) {
	// Local address streams should encode in ~2-3 bytes per record,
	// far below the naive 10.
	tr := &Trace{NCPU: 1}
	addr := uint64(0x10000)
	for i := 0; i < 1000; i++ {
		addr += 4
		tr.Refs = append(tr.Refs, NewRef(0, IFetch, addr, false))
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()-14) / 1000
	if perRecord > 5 {
		t.Errorf("sequential stream costs %.1f bytes/record, want <= 5", perRecord)
	}
}

func TestStreamingWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	refs := []Ref{
		NewRef(0, Read, 100, false),
		NewRef(3, Write, 200, true),
		NewRef(1, Flush, 300, false),
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.NCPU != 4 {
		t.Errorf("ncpu = %d", r.NCPU)
	}
	for i := 0; ; i++ {
		ref, err := r.Read()
		if err == io.EOF {
			if i != len(refs) {
				t.Errorf("EOF after %d records, want %d", i, len(refs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref != refs[i] {
			t.Errorf("record %d: %+v != %+v", i, ref, refs[i])
		}
	}
}

func TestWriterRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRef(33, IFetch, 0, false)); err == nil {
		t.Error("want error for cpu out of range")
	}
	// Writer is poisoned after an error.
	if err := w.Write(NewRef(0, IFetch, 0, false)); err == nil {
		t.Error("writer must stay failed")
	}
	if _, err := NewWriter(&buf, 0); err == nil {
		t.Error("want error for ncpu 0")
	}
	if _, err := NewWriter(&buf, 64); err == nil {
		t.Error("want error for ncpu 64")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all")); !errors.Is(err, ErrBadTrace) {
		t.Errorf("want ErrBadTrace, got %v", err)
	}
	if _, err := NewReader(strings.NewReader("SW")); err == nil {
		t.Error("want error for short header")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	_ = w.Write(NewRef(0, IFetch, 1<<40, false))
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("want error for truncated record")
	}
}

// Inputs naming the address 2^53, one above MaxAddr, in each format:
// both readers must reject it rather than build a record that cannot
// hold it.
const overMaxText = "#swcc-trace ncpu=1\n0 r 20000000000000\n"

func overMaxBinary() []byte {
	data := []byte("SWCT\x01\x01\x01\x00\x00\x00\x00\x00\x00\x00")
	data = append(data, byte(Read))
	return binary.AppendUvarint(data, MaxAddr+1)
}

func TestReadersRejectAddrAboveMax(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(overMaxBinary())); !errors.Is(err, ErrBadTrace) {
		t.Errorf("binary reader: want ErrBadTrace, got %v", err)
	}
	if _, err := ReadText(strings.NewReader(overMaxText)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("text reader: want ErrBadTrace, got %v", err)
	}
	// MaxAddr itself is a legal address in both formats.
	top := &Trace{NCPU: 1, Refs: []Ref{NewRef(0, Read, MaxAddr, false)}}
	var bin, text bytes.Buffer
	if err := WriteTrace(&bin, top); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&text, top); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadTrace(&bin); err != nil || got.Refs[0] != top.Refs[0] {
		t.Errorf("binary reader on MaxAddr: %v, %v", got, err)
	}
	if got, err := ReadText(&text); err != nil || got.Refs[0] != top.Refs[0] {
		t.Errorf("text reader on MaxAddr: %v, %v", got, err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NCPU != tr.NCPU || len(got.Refs) != len(tr.Refs) {
		t.Fatalf("shape mismatch")
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Errorf("ref %d: %+v != %+v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	input := "#swcc-trace ncpu=2\n\n# a comment\n0 r ff s\n1 w 10\n"
	tr, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Refs) != 2 {
		t.Fatalf("got %d refs, want 2", len(tr.Refs))
	}
	if !tr.Refs[0].Shared() || tr.Refs[0].Addr() != 0xff {
		t.Errorf("first ref wrong: %+v", tr.Refs[0])
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"#swcc-trace ncpu=2\n9 r 10\n",   // cpu out of range
		"#swcc-trace ncpu=2\n0 x 10\n",   // bad kind
		"#swcc-trace ncpu=2\n0 r zzzz\n", // bad addr
		"#swcc-trace ncpu=2\n0 r\n",      // short line
	}
	for i, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	f := func(cpus []uint8, kinds []uint8, addrs []uint64, shared []bool) bool {
		n := len(cpus)
		for _, s := range [][]int{{len(kinds)}, {len(addrs)}, {len(shared)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		tr := &Trace{NCPU: 32}
		for i := 0; i < n; i++ {
			tr.Refs = append(tr.Refs, NewRef(cpus[i]%32, Kind(kinds[i]%4), addrs[i]&MaxAddr, shared[i]))
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got.Refs) != len(tr.Refs) {
			return false
		}
		for i := range tr.Refs {
			if got.Refs[i] != tr.Refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
