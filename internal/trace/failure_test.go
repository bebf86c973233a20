package trace

import (
	"errors"
	"testing"
)

type failWriter struct {
	allow int
}

var errInjected = errors.New("injected write failure")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.allow <= 0 {
		return 0, errInjected
	}
	n := len(p)
	if n > w.allow {
		n = w.allow
		w.allow = 0
		return n, errInjected
	}
	w.allow -= n
	return n, nil
}

func TestWriteTracePropagatesWriterErrors(t *testing.T) {
	tr := sample()
	// Fail at several byte offsets: header, mid-record, flush.
	for _, allow := range []int{0, 5, 14, 16} {
		if err := WriteTrace(&failWriter{allow: allow}, tr); err == nil {
			t.Errorf("allow=%d: want error", allow)
		}
	}
}

func TestWriteTextPropagatesWriterErrors(t *testing.T) {
	tr := sample()
	for _, allow := range []int{0, 10} {
		if err := WriteText(&failWriter{allow: allow}, tr); err == nil {
			t.Errorf("allow=%d: want error", allow)
		}
	}
}

func TestStreamingWriterFlushError(t *testing.T) {
	w, err := NewWriter(&failWriter{allow: 14}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(NewRef(0, Read, 42, false)); err != nil {
		t.Fatalf("buffered write should succeed: %v", err)
	}
	if err := w.Flush(); err == nil {
		t.Error("flush must surface the writer failure")
	}
}

func TestNewWriterHeaderError(t *testing.T) {
	// The header is buffered; NewWriter itself succeeds, the error
	// surfaces at Flush.
	w, err := NewWriter(&failWriter{allow: 0}, 1)
	if err != nil {
		t.Fatalf("NewWriter buffers the header: %v", err)
	}
	if err := w.Flush(); err == nil {
		t.Error("flush must fail")
	}
}
