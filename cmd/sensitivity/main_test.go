package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSensitivityTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-procs", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"apl", "Software-Flush", "Dragon", "8 processors"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestSensitivityRank(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rank", "No-Cache"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "No-Cache, by impact:") {
		t.Error("missing ranking section")
	}
	// shd must rank first for No-Cache.
	idx := strings.Index(s, "1. ")
	if idx < 0 || !strings.HasPrefix(s[idx:], "1. shd") {
		t.Errorf("No-Cache top parameter should be shd:\n%s", s[idx:idx+20])
	}
}

func TestSensitivityErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rank", "Bogus"}, &out); err == nil {
		t.Error("want error for unknown scheme")
	}
	if err := run([]string{"-procs", "0"}, &out); err == nil {
		t.Error("want error for zero processors")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("want error for unknown flag")
	}
}

// TestRejectsPositionalArgs: a stray argument is an error, not ignored.
func TestRejectsPositionalArgs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-procs", "8", "Dragon"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("positional argument: %v, want an unexpected-arguments error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %d bytes despite the error", out.Len())
	}
}
