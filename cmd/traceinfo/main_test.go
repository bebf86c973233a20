package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func makeTrace(t *testing.T) string {
	t.Helper()
	cfg, err := tracegen.Preset("pops")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstrPerCPU = 8000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsOnly(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"processors", "ifetches", "ls (data/instr)", "shd (shared/data)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(s, "Table 2 parameters") {
		t.Error("params section printed without -params")
	}
}

func TestWithParams(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-params", "-warmup", "0.5"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 2 parameters") || !strings.Contains(s, "oclean") {
		t.Errorf("params output incomplete:\n%s", s)
	}
	if !strings.Contains(s, "explicit flush records") {
		t.Error("pops trace should be flush-delimited")
	}
}

func TestJSONOutputFeedsModel(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-json"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"apl\"") {
		t.Errorf("json output missing apl: %s", out.String())
	}
}

func TestStabilityFlag(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-stability", "-warmup", "0.25"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "split-half stability") || !strings.Contains(s, "divergence") {
		t.Errorf("stability output incomplete:\n%s", s)
	}
}

func TestTextFormatFromStdin(t *testing.T) {
	cfg := tracegen.DefaultConfig()
	cfg.InstrPerCPU = 500
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-textfmt"}, &buf, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "records") {
		t.Error("stats missing")
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-trace", "/no/such/file"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for missing file")
	}
	if err := run(nil, strings.NewReader("junk"), &out); err == nil {
		t.Error("want error for garbage input")
	}
	path := makeTrace(t)
	if err := run([]string{"-trace", path, "-block", "13"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for bad block size")
	}
	if err := run([]string{"-trace", path, "-params", "-warmup", "2"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for bad warmup")
	}
}

// TestRejectsPositionalArgs: a trace named without -trace is an error,
// not a silent read of stdin.
func TestRejectsPositionalArgs(t *testing.T) {
	path := makeTrace(t)
	var out bytes.Buffer
	err := run([]string{path}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("positional trace file: %v, want an unexpected-arguments error", err)
	}
}
