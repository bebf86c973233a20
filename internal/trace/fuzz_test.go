package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadTrace: arbitrary bytes must never panic the binary reader, and
// anything it accepts must re-encode to an equivalent trace.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("SWCT"))
	f.Add([]byte{})
	f.Add([]byte("SWCT\x01\x04\xff\xff\xff\xff\xff\xff\xff\xff\x00"))
	f.Add(overMaxBinary())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not parse: %v", err)
		}
		if len(back.Refs) != len(tr.Refs) {
			t.Fatalf("round trip lost records: %d vs %d", len(back.Refs), len(tr.Refs))
		}
		for i := range tr.Refs {
			if back.Refs[i] != tr.Refs[i] {
				t.Fatalf("record %d differs after round trip", i)
			}
		}
	})
}

// FuzzReadText: the text parser must never panic and must only accept
// inputs that round-trip.
func FuzzReadText(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteText(&seed, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("#swcc-trace ncpu=2\n0 r ff s\n")
	f.Add("#swcc-trace ncpu=300\n")
	f.Add(overMaxText)
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
	})
}

// FuzzStreamReader: truncations of a valid stream must yield clean
// errors or shorter traces, never panics or junk records.
func FuzzStreamReader(f *testing.F) {
	var full bytes.Buffer
	if err := WriteTrace(&full, sample()); err != nil {
		f.Fatal(err)
	}
	data := full.Bytes()
	for cut := 0; cut <= len(data); cut += 3 {
		f.Add(cut)
	}
	f.Fuzz(func(t *testing.T, cut int) {
		if cut < 0 || cut > len(data) {
			return
		}
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			return
		}
		for {
			ref, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if int(ref.CPU()) >= r.NCPU {
				t.Fatalf("reader produced out-of-range cpu %d", ref.CPU())
			}
		}
	})
}
