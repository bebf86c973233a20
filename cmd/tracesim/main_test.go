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

func writeTestTrace(t *testing.T, text bool) string {
	t.Helper()
	cfg := tracegen.DefaultConfig()
	cfg.InstrPerCPU = 3000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if text {
		err = trace.WriteText(f, tr)
	} else {
		err = trace.WriteTrace(f, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSimulateFromFile(t *testing.T) {
	path := writeTestTrace(t, false)
	var out bytes.Buffer
	err := run([]string{"-trace", path, "-protocol", "dragon", "-warmup", "0.25"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"protocol Dragon", "processing power", "bus:", "utilization", "snoop:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestSimulateTextFromStdin(t *testing.T) {
	cfg := tracegen.DefaultConfig()
	cfg.InstrPerCPU = 1000
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traceText bytes.Buffer
	if err := trace.WriteText(&traceText, tr); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-textfmt", "-protocol", "swflush"}, &traceText, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flushes:") {
		t.Error("software-flush run should report flushes")
	}
}

func TestAllProtocols(t *testing.T) {
	path := writeTestTrace(t, false)
	for _, proto := range []string{"base", "dragon", "nocache", "swflush", "wi"} {
		var out bytes.Buffer
		if err := run([]string{"-trace", path, "-protocol", proto}, strings.NewReader(""), &out); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

func TestNetworkMediumAndPolicy(t *testing.T) {
	path := writeTestTrace(t, false)
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-protocol", "swflush", "-medium", "network", "-policy", "fifo"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "on network") {
		t.Error("output should name the medium")
	}
	if err := run([]string{"-trace", path, "-protocol", "dragon", "-medium", "network"}, strings.NewReader(""), &out); err == nil {
		t.Error("dragon on network must be rejected")
	}
	if err := run([]string{"-trace", path, "-medium", "tokenring"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for unknown medium")
	}
	if err := run([]string{"-trace", path, "-policy", "plru"}, strings.NewReader(""), &out); err == nil {
		t.Error("want error for unknown policy")
	}
}

func TestBadInputs(t *testing.T) {
	empty := strings.NewReader("")
	var out bytes.Buffer
	if err := run([]string{"-protocol", "firefly"}, empty, &out); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("unknown protocol: %v, want an unknown-protocol error", err)
	}
	if err := run([]string{"-trace", "/does/not/exist"}, empty, &out); err == nil {
		t.Error("want error for missing file")
	}
	if err := run(nil, strings.NewReader("garbage"), &out); err == nil {
		t.Error("want error for garbage stdin")
	}
	path := writeTestTrace(t, false)
	if err := run([]string{"-trace", path, "-warmup", "1.5"}, empty, &out); err == nil {
		t.Error("want error for warmup out of range")
	}
	if err := run([]string{"-trace", path, "-warmup", "NaN"}, empty, &out); err == nil || !strings.Contains(err.Error(), "warmup fraction NaN") {
		t.Errorf("-warmup NaN: want an error naming the fraction, got %v", err)
	}
	if err := run([]string{"-trace", path, "-cache", "100"}, empty, &out); err == nil {
		t.Error("want error for bad cache size")
	}
}
