// Command perfbench is the repository benchmark. It runs one workload
// against the system built from this checkout and prints every metric
// with its unit and sample count, then one JSON result line:
//
//	perfbench --workload gw_hot --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	gw_hot           closed loop, 2 clients -> coheregw (affinity) -> 2 capped cohered; warm pool
//	cold_sweep       closed loop, 2 clients -> 1 capped cohered; /v1/sweep batches of never-seen points
//	paper_artifacts  every registered experiment, regenerated as `cohere all` does
//
// --trace 1 makes the separate traced run: spans at the client, the
// gateway and each backend, /metrics and Stats() deltas, and direct
// timings of each layer, reported as the per-layer metrics. --repeat N
// runs the workload N times on consecutive seeds and prints each
// metric's median, quartiles and spread.
//
// The command exits nonzero when any output is wrong.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where the traced run writes its spans
}

// phase counts one phase's operations.
type phase struct {
	Attempted, Failed int
}

// result is one run's outcome. mismatch and note may be called from
// several client goroutines.
type result struct {
	mu           sync.Mutex
	Setup, Timed phase
	Metrics      []metric
	Mismatches   []string
	Notes        []string
}

// note records a remark printed with the report.
func (r *result) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// mismatch describes a wrong output; the caller counts the operation
// it belongs to as failed.
func (r *result) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool {
	return r.Setup.Failed == 0 && r.Timed.Failed == 0
}

// setupRounds is how many times each run sets its workload up anew;
// setup_s is the median.
const setupRounds = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == artifactsChildArg {
		os.Exit(artifactsChild(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "gw_hot, cold_sweep or paper_artifacts")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload N times on consecutive seeds and print the spread")
	outDir := fs.String("out", ".bench_build", "directory for span files")
	writeDigests := fs.Bool("write-digests", false, "regenerate the artifact reference digests and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests {
		if err := writeArtifactDigests(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	if *repeat > 0 {
		return repeatRuns(o, *repeat, stdout, stderr)
	}
	var res *result
	var err error
	switch o.workload {
	case "gw_hot":
		res, err = runGwHot(o)
	case "cold_sweep":
		res, err = runColdSweep(o)
	case "paper_artifacts":
		res, err = runArtifacts(o)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want gw_hot, cold_sweep or paper_artifacts)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, o, res)
	if !res.correct() {
		return 1
	}
	return 0
}

// printResult writes the human-readable report, then the JSON result as
// the last line.
func printResult(w io.Writer, o options, res *result) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "phase setup attempted %d failed %d\n", res.Setup.Attempted, res.Setup.Failed)
	fmt.Fprintf(w, "phase timed attempted %d failed %d\n", res.Timed.Attempted, res.Timed.Failed)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "metric %-40s %14.6g %-6s samples %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, s := range res.Notes {
		fmt.Fprintln(w, "note", s)
	}
	for _, s := range res.Mismatches {
		fmt.Fprintln(w, "mismatch", s)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`,
		res.correct(), res.Setup.Attempted+res.Timed.Attempted, res.Setup.Failed+res.Timed.Failed)
	for i, m := range res.Metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}

// runResult is the JSON result line, as read back by --repeat.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine returns the last non-empty line of r.
func lastLine(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var last string
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

func parseResult(line string) (runResult, error) {
	var rr runResult
	err := json.Unmarshal([]byte(line), &rr)
	return rr, err
}
