package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each in a fresh process on seed
// o.seed+i, and prints every metric's median, quartiles and spread
// ((q3-q1)/median, quartiles as Python's statistics.quantiles gives
// them). It is how the bounds in BENCHMARK.json were chosen.
func repeatRuns(o options, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--out", o.outDir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		report := out.String()
		line, _ := lastLine(strings.NewReader(report))
		rr, err := parseResult(line)
		if runErr != nil || err != nil || !rr.Correct {
			fmt.Fprintf(stdout, "run seed %d failed: %v %v\n%s", seed, runErr, err, report)
			code = 1
			continue
		}
		for _, l := range strings.Split(report, "\n") {
			if strings.HasPrefix(l, "note ") {
				fmt.Fprintf(stdout, "run seed %d: %s\n", seed, l)
			}
		}
		fmt.Fprintf(stdout, "run seed %d: %s\n", seed, line)
		for name, m := range rr.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		vs := values[name]
		q1, med, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-40s %6s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], med, q1, q3, spread)
	}
	return code
}
