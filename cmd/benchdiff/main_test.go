package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// workloads are the workloads BENCHMARK.json names, in its order.
var workloads = []string{"gw_hot", "cold_sweep", "paper_artifacts"}

// captured reads testdata/<workload>.jsonl: the JSON result lines of a
// short real perfbench run of the workload, untraced then traced.
func captured(t *testing.T, workload string) (untraced, traced json.RawMessage) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", workload+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []json.RawMessage
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, json.RawMessage(append([]byte(nil), sc.Bytes()...)))
	}
	if err := sc.Err(); err != nil || len(lines) != 2 {
		t.Fatalf("%s: want 2 result lines, got %d (%v)", workload, len(lines), err)
	}
	return lines[0], lines[1]
}

// fullRecord is the runs `make bench-json` writes, built from the
// captured lines: three untraced seeds and one traced run per workload.
func fullRecord(t *testing.T) []benchRun {
	t.Helper()
	var runs []benchRun
	for _, w := range workloads {
		u, tr := captured(t, w)
		for seed := uint64(1); seed <= 3; seed++ {
			runs = append(runs, benchRun{Workload: w, Seed: seed, Result: parse(t, u)})
		}
		runs = append(runs, benchRun{Workload: w, Seed: 1, Trace: true, Result: parse(t, tr)})
	}
	return runs
}

func parse(t *testing.T, line json.RawMessage) result {
	t.Helper()
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// scale multiplies metric in every run of workload (traced or untraced,
// as selected) by f, on a copy of runs.
func scale(runs []benchRun, workload string, trace bool, metric string, f float64) []benchRun {
	out := make([]benchRun, len(runs))
	for i, r := range runs {
		out[i] = r
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		m := make(map[string]struct{ Value float64 }, len(r.Result.Metrics))
		for k, v := range r.Result.Metrics {
			if k == metric {
				v.Value *= f
			}
			m[k] = v
		}
		out[i].Result.Metrics = m
	}
	return out
}

// benchDir returns a directory holding the repository's BENCHMARK.json
// and one record per runs argument, numbered BENCH_PR1.json onward.
func benchDir(t *testing.T, records ...[]benchRun) string {
	t.Helper()
	dir := t.TempDir()
	spec, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, "BENCHMARK.json", string(spec))
	for i, runs := range records {
		writeRecord(t, dir, fmt.Sprintf("BENCH_PR%d.json", i+1), runs)
	}
	return dir
}

// writeRecord writes runs into dir as a perfbench record.
func writeRecord(t *testing.T, dir, name string, runs []benchRun) {
	t.Helper()
	data, err := json.Marshal(struct {
		Tool string     `json:"tool"`
		Runs []benchRun `json:"runs"`
	}{"perfbench", runs})
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, name, string(data))
}

// write drops one file into dir.
func write(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diffDir runs benchdiff on dir and returns its exit code and report.
func diffDir(dir string) (int, string) {
	var out bytes.Buffer
	code := run([]string{"-dir", dir}, &out, &out)
	return code, out.String()
}

// failLine returns the report's FAIL line mentioning every part, or "".
func failLine(report string, parts ...string) string {
	for _, l := range strings.Split(report, "\n") {
		if !strings.HasSuffix(l, " FAIL") {
			continue
		}
		all := true
		for _, p := range parts {
			all = all && strings.Contains(l, p)
		}
		if all {
			return l
		}
	}
	return ""
}

// TestLoadRealFormat: the captured perfbench lines carry every metric
// BENCHMARK.json names, end-to-end untraced and per-layer traced, and a
// record of them passes as the anchor. A change to perfbench's output
// format breaks this test.
func TestLoadRealFormat(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		u, tr := captured(t, w)
		ur, trr := parse(t, u), parse(t, tr)
		if !ur.Correct || !trr.Correct || ur.Attempted == 0 || trr.Attempted == 0 {
			t.Errorf("%s: captured runs not correct or empty", w)
		}
		for _, m := range sp.EndToEnd {
			if _, ok := ur.Metrics[m.Name]; !ok {
				t.Errorf("%s untraced: no %s", w, m.Name)
			}
		}
		for _, m := range sp.PerLayer {
			if _, ok := trr.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: no %s", w, m.Name)
			}
		}
	}
	code, report := diffDir(benchDir(t, fullRecord(t)))
	if code != 0 || !strings.Contains(report, "is the anchor; no baseline yet") {
		t.Errorf("exit %d, want 0 with the anchor line:\n%s", code, report)
	}
}

// TestDiffNoBaseline: a lone record is the anchor; nothing to compare,
// exit 0.
func TestDiffNoBaseline(t *testing.T) {
	code, report := diffDir(benchDir(t, fullRecord(t)))
	if code != 0 || !strings.Contains(report, "BENCH_PR1.json is the anchor") ||
		strings.Contains(report, "baseline BENCH") {
		t.Errorf("exit %d:\n%s", code, report)
	}
	code, report = diffDir(benchDir(t))
	if code != 0 || !strings.Contains(report, "no perfbench records") {
		t.Errorf("empty directory: exit %d:\n%s", code, report)
	}
}

// TestDiffPassesWithinBand: changes inside every bound are reported but
// do not fail.
func TestDiffPassesWithinBand(t *testing.T) {
	base := fullRecord(t)
	cand := scale(base, "gw_hot", false, "ops_per_s", 0.9)
	cand = scale(cand, "gw_hot", false, "latency_p90_ms", 1.2)
	dir := benchDir(t, base, cand)
	code, report := diffDir(dir)
	if code != 0 || !strings.Contains(report, "benchdiff: ok") ||
		!strings.Contains(report, "baseline "+filepath.Join(dir, "BENCH_PR1.json")) {
		t.Errorf("exit %d, want 0 against BENCH_PR1.json:\n%s", code, report)
	}
	if !strings.Contains(report, "gw_hot ops_per_s") || !strings.Contains(report, "(-10.0%, bound 25%)") {
		t.Errorf("report does not show the change against its bound:\n%s", report)
	}
}

// TestDiffFailsOnP90Regression: a tail-latency rise past its bound
// fails even when throughput improved. p90 is the bounded tail;
// perfbench's README says why p99 is not.
func TestDiffFailsOnP90Regression(t *testing.T) {
	base := fullRecord(t)
	cand := scale(base, "gw_hot", false, "latency_p90_ms", 1.5)
	cand = scale(cand, "gw_hot", false, "ops_per_s", 1.2)
	code, report := diffDir(benchDir(t, base, cand))
	if code != 1 || failLine(report, "gw_hot latency_p90_ms") == "" {
		t.Errorf("exit %d, want 1 with a latency_p90_ms FAIL line:\n%s", code, report)
	}
	if failLine(report, "ops_per_s") != "" {
		t.Errorf("improved throughput marked as failing:\n%s", report)
	}
}

// TestDiffFailsOnThroughputDrop: ops_per_s falling past its bound fails.
func TestDiffFailsOnThroughputDrop(t *testing.T) {
	base := fullRecord(t)
	cand := scale(base, "paper_artifacts", false, "ops_per_s", 0.7)
	code, report := diffDir(benchDir(t, base, cand))
	if code != 1 || failLine(report, "paper_artifacts ops_per_s", "-30.0%") == "" {
		t.Errorf("exit %d, want 1 with an ops_per_s FAIL line:\n%s", code, report)
	}
}

// TestDiffNamesRegressedStage: a 2x solve stage that halves cold_sweep
// throughput fails, and the failure line names the stage.
func TestDiffNamesRegressedStage(t *testing.T) {
	base := fullRecord(t)
	cand := scale(base, "cold_sweep", false, "ops_per_s", 0.5)
	cand = scale(cand, "cold_sweep", true, "serve.stage.solve_us", 2)
	code, report := diffDir(benchDir(t, base, cand))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, report)
	}
	if failLine(report, "cold_sweep ops_per_s", "worst layer serve.stage.solve_us") == "" {
		t.Errorf("failure line does not name serve.stage.solve_us:\n%s", report)
	}
}

// TestDiffFailsOnFailedShareRise: more failed operations per attempted
// one fails, even with every metric unchanged.
func TestDiffFailsOnFailedShareRise(t *testing.T) {
	base := fullRecord(t)
	cand := append([]benchRun(nil), base...)
	cand[0].Result.Failed = 1 // still correct: the share gate alone
	code, report := diffDir(benchDir(t, base, cand))
	if code != 1 || failLine(report, cand[0].Workload+" failed share") == "" {
		t.Errorf("exit %d, want 1 with a failed-share FAIL line:\n%s", code, report)
	}
}

// TestDiffFailsOnIncorrectRun: any run reporting correct false fails,
// traced or not, with or without a baseline.
func TestDiffFailsOnIncorrectRun(t *testing.T) {
	runs := fullRecord(t)
	runs[len(runs)-1].Result.Correct = false
	code, report := diffDir(benchDir(t, runs))
	if code != 1 || failLine(report, "paper_artifacts seed 1 trace true: correct false") == "" {
		t.Errorf("exit %d, want 1 naming the incorrect run:\n%s", code, report)
	}
}

// TestDiffFailsOnMissingWorkloadOrMetric: the candidate must carry every
// workload and end-to-end metric BENCHMARK.json names.
func TestDiffFailsOnMissingWorkloadOrMetric(t *testing.T) {
	base := fullRecord(t)
	var noCold []benchRun
	for _, r := range base {
		if r.Workload != "cold_sweep" {
			noCold = append(noCold, r)
		}
	}
	tracedOnly := append([]benchRun(nil), base...)
	for i := range tracedOnly {
		tracedOnly[i].Trace = tracedOnly[i].Trace || tracedOnly[i].Workload == "gw_hot"
	}
	noHeap := append([]benchRun(nil), base...)
	for i, r := range noHeap {
		if r.Workload == "gw_hot" {
			m := map[string]struct{ Value float64 }{}
			for k, v := range r.Result.Metrics {
				if k != "heap_peak_mb" {
					m[k] = v
				}
			}
			noHeap[i].Result.Metrics = m
		}
	}
	for _, tc := range []struct {
		name string
		runs []benchRun
		line string
	}{
		{"workload", noCold, "cold_sweep: no untraced run"},
		{"untraced runs", tracedOnly, "gw_hot: no untraced run"},
		{"metric", noHeap, "gw_hot heap_peak_mb: missing"},
	} {
		for _, records := range [][][]benchRun{{tc.runs}, {base, tc.runs}} {
			code, report := diffDir(benchDir(t, records...))
			if code != 1 || failLine(report, tc.line) == "" {
				t.Errorf("%s (%d records): exit %d, want 1 with %q:\n%s", tc.name, len(records), code, tc.line, report)
			}
		}
	}
}

// TestDiffReportsAnchorDrift: drift past a bound since the anchor is
// printed, but only the baseline gates, so the exit code stays 0.
func TestDiffReportsAnchorDrift(t *testing.T) {
	anchor := fullRecord(t)
	mid := scale(anchor, "cold_sweep", false, "ops_per_s", 0.8)
	cand := scale(anchor, "cold_sweep", false, "ops_per_s", 0.64)
	code, report := diffDir(benchDir(t, anchor, mid, cand))
	if code != 0 {
		t.Fatalf("exit %d, want 0 (each step is inside the bound):\n%s", code, report)
	}
	drift := report[strings.Index(report, "drift since anchor"):]
	if !strings.Contains(drift, "BENCH_PR1.json") ||
		!strings.Contains(drift, "cold_sweep ops_per_s") || !strings.Contains(drift, "(-36.0%, bound 25%) beyond bound") {
		t.Errorf("drift table does not flag the 36%% drop:\n%s", report)
	}
}

// TestDiffNotesNewScenario: a workload the baseline lacks (one just
// added to BENCHMARK.json) is noted, not failed; it gates from the next
// record.
func TestDiffNotesNewScenario(t *testing.T) {
	cand := fullRecord(t)
	var base []benchRun
	for _, r := range cand {
		if r.Workload != "paper_artifacts" {
			base = append(base, r)
		}
	}
	code, report := diffDir(benchDir(t, base, cand))
	if code != 0 || !strings.Contains(report, "paper_artifacts: no baseline yet") {
		t.Errorf("exit %d, want 0 with the no-baseline note:\n%s", code, report)
	}
}

// TestDiffSkipsUnsharedBaseline: a record in another format (the old
// cohereload records) shares nothing to compare and is skipped; the
// baseline is the newest earlier perfbench record.
func TestDiffSkipsUnsharedBaseline(t *testing.T) {
	base := fullRecord(t)
	dir := benchDir(t, base)
	write(t, dir, "BENCH_PR2.json", `{"tool": "cohereload", "scenarios": [{"label": "hit_ratio_0.95"}]}`)
	writeRecord(t, dir, "BENCH_PR3.json", scale(base, "gw_hot", false, "ops_per_s", 0.95))
	code, report := diffDir(dir)
	if code != 0 || !strings.Contains(report, "baseline "+filepath.Join(dir, "BENCH_PR1.json")) {
		t.Errorf("exit %d, want 0 against BENCH_PR1.json:\n%s", code, report)
	}
}

// TestDiffSkipsTracedRuns: the traced run pays for its spans, so it
// never enters the end-to-end medians.
func TestDiffSkipsTracedRuns(t *testing.T) {
	base := fullRecord(t)
	for i := range base {
		if base[i].Trace {
			base[i].Result.Metrics["ops_per_s"] = struct{ Value float64 }{1e12}
		}
	}
	code, report := diffDir(benchDir(t, base, base))
	if code != 0 || strings.Contains(report, "1e+12") {
		t.Errorf("exit %d; traced values leaked into the medians:\n%s", code, report)
	}
}

// TestDiffRejectsMalformedRecord: a BENCH_PR file that is not JSON is
// an input error, exit 2, not a silent skip.
func TestDiffRejectsMalformedRecord(t *testing.T) {
	dir := benchDir(t, fullRecord(t))
	write(t, dir, "BENCH_PR2.json", `{"tool": "perfbench", "runs": [`)
	var stderr bytes.Buffer
	if code := run([]string{"-dir", dir}, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "BENCH_PR2.json") {
		t.Errorf("exit %d, want 2 naming the file: %s", code, stderr.String())
	}
}
