// Command benchdiff gates the repository benchmark's records. A record
// is BENCH_PR<n>.json as `make bench-json PR=<n>` writes it: for each
// workload, perfbench's JSON result line, copied verbatim, from three
// untraced runs (seeds 1–3) and one traced run.
//
// Usage:
//
//	benchdiff [-dir .]
//
// Every rule comes from BENCHMARK.json in the same directory: the
// workloads, each end-to-end metric's better direction and bound, and
// each per-layer metric's better direction. benchdiff has none of its
// own. Files whose "tool" is not "perfbench" are skipped.
//
// The newest record is the candidate and the one before it the
// baseline. Per workload, each end-to-end metric is the median of the
// untraced runs. The candidate fails when
//   - any of its runs has "correct": false;
//   - it lacks a workload or an end-to-end metric BENCHMARK.json names;
//   - a workload's failed share (failed/attempted) rose;
//   - a metric is worse than the baseline's by more than its bound.
//
// The last two failure lines name the traced per-layer metric of that
// workload that moved most in its worse direction, a first pointer to
// the layer to look at. The oldest record is the anchor: the
// candidate's change against it is printed as a drift table, so slow
// drift that passes every per-record bound stays visible. The drift
// table is never gated.
//
// Records made at different times are weaker evidence than alternating
// pairs (perfbench runs of the parent and the changed build,
// interleaved): the host's speed drifts over minutes, and the median of
// three seeds blunts that drift without removing it. Claim a gain with
// alternating pairs; the records keep it from eroding.
//
// Exit status is 1 when the candidate fails, 2 on unreadable input, and
// 0 otherwise, including when the candidate is the only record (the
// anchor, with no baseline yet).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json benchdiff reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one declared metric. Per-layer metrics have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// record is one BENCH_PR<n>.json.
type record struct {
	path string
	pr   int
	Tool string     `json:"tool"`
	Runs []benchRun `json:"runs"`
}

// benchRun is one perfbench invocation in a record.
type benchRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// result is the part of perfbench's JSON result line benchdiff reads.
type result struct {
	Correct   bool                               `json:"correct"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

var benchName = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding BENCHMARK.json and the BENCH_PR*.json records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(filepath.Join(*dir, "BENCHMARK.json"))
	var recs []record
	if err == nil {
		recs, err = loadRecords(*dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	report, failed := check(sp, recs)
	fmt.Fprint(stdout, report)
	if failed {
		return 1
	}
	return 0
}

// loadSpec reads BENCHMARK.json.
func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// loadRecords parses every perfbench BENCH_PR*.json in dir, oldest PR
// first. A file that is not JSON fails; one from another tool is
// skipped.
func loadRecords(dir string) ([]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil || e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := record{path: path}
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Tool != "perfbench" {
			continue
		}
		r.pr, _ = strconv.Atoi(m[1])
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].pr < recs[j].pr })
	return recs, nil
}

// check gates the newest record and returns the report and whether it
// failed.
func check(sp spec, recs []record) (string, bool) {
	if len(recs) == 0 {
		return "benchdiff: no perfbench records; nothing to compare\n", false
	}
	var b strings.Builder
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(&b, "  "+format+" FAIL\n", args...)
		failed = true
	}
	cand := recs[len(recs)-1]
	fmt.Fprintf(&b, "benchdiff: candidate %s\n", cand.path)
	for _, r := range cand.Runs {
		if !r.Result.Correct {
			fail("%s seed %d trace %v: correct false", r.Workload, r.Seed, r.Trace)
		}
	}
	for _, w := range sp.Workloads {
		cur := medians(cand, w.Name)
		if cur == nil {
			fail("%s: no untraced run", w.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			if _, ok := cur[m.Name]; !ok {
				fail("%s %s: missing", w.Name, m.Name)
			}
		}
	}

	if len(recs) == 1 {
		fmt.Fprintf(&b, "benchdiff: %s is the anchor; no baseline yet\n", cand.path)
	} else {
		base := recs[len(recs)-2]
		fmt.Fprintf(&b, "baseline %s (median of untraced runs):\n", base.path)
		for _, w := range sp.Workloads {
			bm, cm := medians(base, w.Name), medians(cand, w.Name)
			if cm == nil {
				continue // failed above
			}
			if bm == nil {
				fmt.Fprintf(&b, "  %s: no baseline yet (gates from the next record)\n", w.Name)
				continue
			}
			layer := worstLayer(sp, base, cand, w.Name)
			if bs, cs := failedShare(base, w.Name), failedShare(cand, w.Name); cs > bs {
				fail("%s failed share %.4f%% -> %.4f%%; %s", w.Name, bs*100, cs*100, layer)
			}
			for _, d := range deltas(sp, w.Name, bm, cm) {
				if d.beyond {
					fail("%s; %s", d.text, layer)
				} else {
					fmt.Fprintf(&b, "  %s\n", d.text)
				}
			}
		}
		anchor := recs[0]
		fmt.Fprintf(&b, "drift since anchor %s (reported, not gated):\n", anchor.path)
		for _, w := range sp.Workloads {
			for _, d := range deltas(sp, w.Name, medians(anchor, w.Name), medians(cand, w.Name)) {
				if d.beyond {
					d.text += " beyond bound"
				}
				fmt.Fprintf(&b, "  %s\n", d.text)
			}
		}
	}
	if failed {
		b.WriteString("benchdiff: FAIL\n")
	} else {
		b.WriteString("benchdiff: ok\n")
	}
	return b.String(), failed
}

// delta is one end-to-end metric's change between two records.
type delta struct {
	text   string
	beyond bool // worse by more than the metric's bound
}

// deltas compares the workload's end-to-end medians from one record to
// another, for every metric both carry.
func deltas(sp spec, workload string, from, to map[string]float64) []delta {
	var out []delta
	for _, m := range sp.EndToEnd {
		fv, okF := from[m.Name]
		tv, okT := to[m.Name]
		if !okF || !okT {
			continue
		}
		out = append(out, delta{
			text: fmt.Sprintf("%s %s: %.6g -> %.6g (%+.1f%%, bound %.0f%%)",
				workload, m.Name, fv, tv, change(fv, tv)*100, m.Bound*100),
			beyond: worsening(m.Better, fv, tv) > m.Bound,
		})
	}
	return out
}

// medians returns each metric's median over the workload's untraced
// runs in r, or nil when there are none.
func medians(r record, workload string) map[string]float64 {
	vals := map[string][]float64{}
	n := 0
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		n++
		for name, m := range run.Result.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, len(vals))
	for name, v := range vals {
		sort.Float64s(v)
		out[name] = (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	return out
}

// failedShare is failed/attempted over every run of the workload in r.
func failedShare(r record, workload string) float64 {
	attempted, failed := 0, 0
	for _, run := range r.Runs {
		if run.Workload == workload {
			attempted += run.Result.Attempted
			failed += run.Result.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worstLayer names the per-layer metric whose traced value moved most in
// its worse direction between the two records' traced runs of the
// workload.
func worstLayer(sp spec, base, cand record, workload string) string {
	bt, ct := traced(base, workload), traced(cand, workload)
	if bt == nil || ct == nil {
		return "no traced runs to compare"
	}
	worst, name := 0.0, ""
	for _, m := range sp.PerLayer {
		bv, okB := bt.Metrics[m.Name]
		cv, okC := ct.Metrics[m.Name]
		if w := worsening(m.Better, bv.Value, cv.Value); okB && okC && w > worst {
			worst, name = w, m.Name
		}
	}
	if name == "" {
		return "no traced layer moved worse"
	}
	return fmt.Sprintf("worst layer %s (%.0f%% worse)", name, worst*100)
}

// traced returns the workload's traced result in r, or nil.
func traced(r record, workload string) *result {
	for i, run := range r.Runs {
		if run.Workload == workload && run.Trace {
			return &r.Runs[i].Result
		}
	}
	return nil
}

// change is the signed fractional change from base to cur, 0 when base
// is not positive.
func change(base, cur float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cur - base) / base
}

// worsening is the fractional change from base to cur in the metric's
// worse direction: positive is worse.
func worsening(better string, base, cur float64) float64 {
	if better == "higher" {
		return -change(base, cur)
	}
	return change(base, cur)
}
