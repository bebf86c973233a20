package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func TestGenerateToStdoutBinary(t *testing.T) {
	var out, errB bytes.Buffer
	if err := run([]string{"-ncpu", "2", "-instr", "1000"}, &out, &errB); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTrace(&out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NCPU != 2 {
		t.Errorf("ncpu = %d", tr.NCPU)
	}
	if !strings.Contains(errB.String(), "wrote") {
		t.Error("missing stats line on stderr")
	}
}

func TestGenerateTextToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	var out, errB bytes.Buffer
	err := run([]string{"-preset", "thor", "-instr", "500", "-text", "-o", path, "-seed", "42"}, &out, &errB)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NCPU != 4 {
		t.Errorf("ncpu = %d", tr.NCPU)
	}
}

func TestOverrides(t *testing.T) {
	var out, errB bytes.Buffer
	err := run([]string{"-ncpu", "1", "-instr", "2000", "-ls", "0.5", "-shd", "0", "-wr", "0.1", "-noflush"}, &out, &errB)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTrace(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Refs {
		if r.Kind() == trace.Flush {
			t.Fatal("flush despite -noflush")
		}
		if r.Shared() {
			t.Fatal("shared ref despite -shd 0")
		}
	}
}

func TestBadArgs(t *testing.T) {
	var out, errB bytes.Buffer
	if err := run([]string{"-preset", "nope"}, &out, &errB); err == nil {
		t.Error("want error for bad preset")
	}
	if err := run([]string{"-ls", "2"}, &out, &errB); err == nil {
		t.Error("want error for ls out of range")
	}
	// A NaN must reach validation, not read as unset and keep the
	// preset's value.
	for _, name := range []string{"-ls", "-shd", "-wr"} {
		err := run([]string{"-preset", "pops", "-instr", "100", name, "NaN"}, &out, &errB)
		if !errors.Is(err, tracegen.ErrBadConfig) {
			t.Errorf("%s NaN: want ErrBadConfig, got %v", name, err)
		}
	}
	if err := run([]string{"-ncpu", "0"}, &out, &errB); !errors.Is(err, tracegen.ErrBadConfig) {
		t.Errorf("-ncpu 0: want ErrBadConfig, got %v", err)
	}
	if err := run([]string{"-badflag"}, &out, &errB); err == nil {
		t.Error("want error for unknown flag")
	}
}
