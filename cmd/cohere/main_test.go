package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := run(context.Background(), args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func runErr(t *testing.T, args ...string) error {
	t.Helper()
	var b bytes.Buffer
	err := run(context.Background(), args, &b)
	if err == nil {
		t.Fatalf("run(%v): expected error, got:\n%s", args, b.String())
	}
	return err
}

func TestList(t *testing.T) {
	out := runOK(t, "list")
	for _, want := range []string{"fig1", "fig11", "table8", "packet", "Figure 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunFigure(t *testing.T) {
	out := runOK(t, "figure", "5")
	if !strings.Contains(out, "Dragon") || !strings.Contains(out, "processing power") {
		t.Errorf("figure 5 output unexpected:\n%s", out[:200])
	}
}

func TestRunTableShorthand(t *testing.T) {
	out := runOK(t, "table", "1")
	if !strings.Contains(out, "clean miss (mem)") {
		t.Error("table 1 output missing operations")
	}
}

func TestRunByID(t *testing.T) {
	out := runOK(t, "run", "table8")
	if !strings.Contains(out, "apl") {
		t.Error("table8 output missing apl row")
	}
}

func TestRunJSON(t *testing.T) {
	out := runOK(t, "run", "-json", "fig5")
	var ds struct {
		ID     string `json:"id"`
		Series []struct {
			Name string    `json:"name"`
			Y    []float64 `json:"y"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &ds); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if ds.ID != "fig5" || len(ds.Series) != 5 {
		t.Errorf("json dataset wrong: id=%q series=%d", ds.ID, len(ds.Series))
	}
}

func TestAllOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	runOK(t, "all", "-scale", "0.05", "-out", dir)
	for _, want := range []string{"fig4.txt", "fig4.json", "table8.csv", "patel.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing artifact %s: %v", want, err)
		}
	}
	// Chart-only datasets get .txt and .json but no .csv.
	if _, err := os.Stat(filepath.Join(dir, "fig7.csv")); err == nil {
		t.Error("fig7.csv should not exist (chart-only dataset)")
	}
}

func TestRunCSV(t *testing.T) {
	out := runOK(t, "run", "-csv", "table1")
	if !strings.HasPrefix(out, "operation,cpu time,bus time") {
		t.Errorf("csv header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestRunValidationScaled(t *testing.T) {
	out := runOK(t, "run", "-scale", "0.1", "-preset", "thor", "fig1")
	if !strings.Contains(out, "thor") {
		t.Error("fig1 output should name the preset")
	}
}

func TestEval(t *testing.T) {
	out := runOK(t, "eval", "-scheme", "swflush", "-procs", "4", "-set", "apl=2", "-level", "mid")
	if !strings.Contains(out, "Software-Flush") {
		t.Error("eval output missing scheme name")
	}
	if !strings.Contains(out, "bus utilization") {
		t.Error("eval output missing table")
	}
}

func TestSweep(t *testing.T) {
	out := runOK(t, "sweep", "-scheme", "swflush", "-param", "apl", "-from", "1", "-to", "8", "-steps", "4", "-procs", "4")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 7 {
		t.Errorf("sweep output too short:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	runErr(t)
	runErr(t, "bogus")
	runErr(t, "run")
	runErr(t, "run", "fig99")
	runErr(t, "figure", "99")
	runErr(t, "eval", "-scheme", "firefly")
	runErr(t, "eval", "-level", "extreme")
	runErr(t, "eval", "-set", "bogus")
	runErr(t, "eval", "-set", "apl=abc")
	runErr(t, "sweep", "-steps", "1")
	runErr(t, "sweep", "-param", "nope")
	runErr(t, "run", "-csv", "fig7") // fig7 is chart-only: no tabular data for CSV
	runErr(t, "run", "-scale", "NaN", "patel")
	runErr(t, "run", "-preset", "nope", "fig1")
}

// TestStrayArguments: subcommands without positional arguments reject
// them instead of silently dropping every flag after the first stray
// word.
func TestStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"all", "stray", "-h"},
		{"eval", "stray"},
		{"sweep", "stray", "-steps", "2"},
		{"refine", "-schemes", "base,dragon", "stray"},
		{"advise", "stray"},
		{"compare", "stray"},
	} {
		if err := runErr(t, args...); !strings.Contains(err.Error(), "unexpected arguments") {
			t.Errorf("run(%v): %v, want unexpected arguments", args, err)
		}
	}
}

func TestHelp(t *testing.T) {
	runOK(t, "help")
}

func TestAdviseDefault(t *testing.T) {
	out := runOK(t, "advise")
	if !strings.Contains(out, "1     Dragon") {
		t.Errorf("bus advise should rank Dragon first:\n%s", out)
	}
}

func TestAdviseNetwork(t *testing.T) {
	out := runOK(t, "advise", "-stages", "8")
	if strings.Contains(out, "Dragon") {
		t.Error("network advise must exclude snoopy schemes")
	}
	if !strings.Contains(out, "Software-Flush") {
		t.Error("network advise missing Software-Flush")
	}
}

func TestAdviseParamsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(`{"shd": 0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "advise", "-params", path)
	if !strings.Contains(out, "efficiency") {
		t.Error("advise output missing efficiency column")
	}
	runErr(t, "advise", "-params", "/does/not/exist")
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"nope": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runErr(t, "advise", "-params", bad)
}

func TestParseSet(t *testing.T) {
	name, v, err := parseSet("apl=3.5")
	if err != nil || name != "apl" || v != 3.5 {
		t.Errorf("parseSet: %q %g %v", name, v, err)
	}
	var m multiFlag
	if err := m.Set("a=1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b=2"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a=1,b=2" {
		t.Errorf("multiFlag.String = %q", m.String())
	}
}

func TestEvalBreakdown(t *testing.T) {
	out := runOK(t, "eval", "-scheme", "nocache", "-breakdown", "-procs", "2")
	if !strings.Contains(out, "bus share") || !strings.Contains(out, "read through") {
		t.Errorf("breakdown output incomplete:\n%s", out)
	}
}

func TestCompare(t *testing.T) {
	out := runOK(t, "compare", "-a", "low", "-b", "high", "-procs", "8")
	if !strings.Contains(out, "No-Cache") || !strings.Contains(out, "change") {
		t.Errorf("compare output incomplete:\n%s", out)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(`{"apl": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runOK(t, "compare", "-a", "mid", "-b", path)
	runErr(t, "compare", "-a", "nope-level-nor-file")
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"apl": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runErr(t, "compare", "-b", bad)
}
