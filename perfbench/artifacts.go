package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"swcc/internal/experiments"
)

// paper_artifacts regenerates every registered experiment the way
// `cohere all` does. The package-level model cache in
// internal/experiments lives for one process, so each regeneration runs
// in a fresh child process: nothing carries over between them.

const (
	artifactsChildArg = "artifacts-child"
	goldenDir         = "internal/experiments/testdata/golden"
	digestsFile       = "perfbench/testdata/artifact_digests.json"
	minRegenerations  = 5
	// startupProbes extra children only start up, so setup_s, a few
	// milliseconds, rests on enough samples to be steady.
	startupProbes = 40
)

// childReport is what one regeneration child prints as its last line.
type childReport struct {
	WallS      float64            `json:"wall_s"`
	HeapMB     float64            `json:"heap_mb"`
	GCs        int                `json:"gcs"`
	Artifacts  int                `json:"artifacts"`
	PerS       map[string]float64 `json:"per_s,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Mismatches []string           `json:"mismatches"`
}

// runArtifacts regenerates the artifacts in fresh processes until the
// measured time is spent (at least minRegenerations times). setup_s is
// a child's start-up: exec to ready, package initialisation included.
func runArtifacts(o options) (*result, error) {
	res := &result{}
	if o.trace {
		return traceArtifacts(o, res)
	}
	var setups, walls, heaps []float64
	for i := 0; i < startupProbes; i++ {
		setup, err := startupTime()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	var artifacts, gcs int
	start := time.Now()
	for len(walls) < minRegenerations || time.Since(start).Seconds() < o.seconds {
		setup, rep, err := runChild("untraced")
		if err != nil {
			return nil, err
		}
		res.Timed.Attempted += rep.Artifacts
		res.Timed.Failed += len(rep.Mismatches)
		for _, m := range rep.Mismatches {
			res.mismatch("%s", m)
		}
		setups = append(setups, setup)
		walls = append(walls, rep.WallS)
		heaps = append(heaps, rep.HeapMB)
		artifacts += rep.Artifacts
		gcs += rep.GCs
	}
	sort.Float64s(walls)
	var total float64
	for _, w := range walls {
		total += w
	}
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("ops_per_s", float64(artifacts)/total, "1/s", artifacts)
	res.add("latency_p50_ms", median(walls)*1000, "ms", len(walls))
	res.note("latency_p90_ms is the slowest of %d regenerations (too few for a p90 with ten samples beyond it)", len(walls))
	res.add("latency_p90_ms", walls[len(walls)-1]*1000, "ms", len(walls))
	res.add("heap_peak_mb", median(heaps), "MB", gcs)
	return res, nil
}

// traceArtifacts is the traced run: one untraced regeneration, one that
// times every experiment separately on the same number of workers, and
// the direct simulation-stack pass.
func traceArtifacts(o options, res *result) (*result, error) {
	_, plain, err := runChild("untraced")
	if err != nil {
		return nil, err
	}
	_, traced, err := runChild("traced")
	if err != nil {
		return nil, err
	}
	for _, rep := range []childReport{plain, traced} {
		res.Timed.Attempted += rep.Artifacts
		res.Timed.Failed += len(rep.Mismatches)
		for _, m := range rep.Mismatches {
			res.mismatch("%s", m)
		}
	}
	lm := layerMetrics{}
	lm.set("trace_overhead", plain.WallS/traced.WallS, 2)
	isSim := map[string]bool{}
	for _, id := range simArtifacts {
		isSim[id] = true
		lm.set("experiments."+id+"_s", traced.PerS[id], 1)
	}
	var sum, simSum, model float64
	var modelN int
	for id, s := range traced.PerS {
		sum += s
		if isSim[id] {
			simSum += s
		} else {
			model += s
			modelN++
		}
	}
	lm.set("experiments.model_s", model, modelN)
	// Both terms from the traced child, so the host's speed at the time
	// of the untraced child does not enter the ratio.
	lm.set("experiments.parallel_efficiency", sum/(traced.WallS*float64(runtime.GOMAXPROCS(0))), len(traced.PerS))
	lm.set("split.sim_share_of_artifacts", ratio(simSum, sum), len(traced.PerS))
	if err := lm.simPass(); err != nil {
		return nil, err
	}
	rec := &recorder{spans: traced.Spans}
	if err := writeSpans(o, rec); err != nil {
		return nil, err
	}
	lm.report(res)
	return res, nil
}

// startChild starts a child in the given mode and returns once it has
// said it is ready, with the time that took: the child's start-up.
func startChild(mode string) (*exec.Cmd, *bufio.Reader, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	cmd := exec.Command(self, artifactsChildArg, mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	setup := time.Since(t0).Seconds()
	if err != nil || line != "ready\n" {
		cmd.Wait()
		return nil, nil, 0, fmt.Errorf("artifacts child did not start: %q %v", line, err)
	}
	return cmd, br, setup, nil
}

// startupTime starts a child that exits once ready.
func startupTime() (float64, error) {
	cmd, _, setup, err := startChild("startup")
	if err != nil {
		return 0, err
	}
	return setup, cmd.Wait()
}

// runChild runs one regeneration in a fresh process and returns its
// start-up time and report.
func runChild(mode string) (float64, childReport, error) {
	var rep childReport
	cmd, br, setup, err := startChild(mode)
	if err != nil {
		return 0, rep, err
	}
	last, err := lastLine(br)
	if werr := cmd.Wait(); werr != nil {
		return 0, rep, fmt.Errorf("artifacts child: %v", werr)
	}
	if err != nil {
		return 0, rep, err
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return 0, rep, fmt.Errorf("artifacts child report: %v", err)
	}
	return setup, rep, nil
}

// artifactsChild is the child process: "untraced" regenerates through
// experiments.RunAllCtx exactly as `cohere all` does; "traced" runs the
// same experiments on the same number of workers but times each
// RunCtx call; "startup" only starts.
func artifactsChild(args []string) int {
	fmt.Println("ready")
	if len(args) != 1 || (args[0] != "untraced" && args[0] != "traced" && args[0] != "startup") {
		fmt.Fprintln(os.Stderr, "perfbench: artifacts child wants untraced, traced or startup")
		return 2
	}
	if args[0] == "startup" {
		return 0
	}
	ctx := context.Background()
	var rep childReport
	var datasets []*experiments.Dataset
	var err error
	hp := startHeapPeak()
	t0 := time.Now()
	if args[0] == "untraced" {
		datasets, err = experiments.RunAllCtx(ctx, experiments.Options{}, 0)
	} else {
		datasets, rep.PerS, rep.Spans, err = runEachTimed(ctx)
	}
	rep.WallS = time.Since(t0).Seconds()
	rep.HeapMB, rep.GCs = hp.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Artifacts = len(datasets)
	rep.Mismatches = checkArtifacts(datasets)
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// runEachTimed regenerates every experiment on GOMAXPROCS workers (the
// parallelism RunAllCtx defaults to), timing each call.
func runEachTimed(ctx context.Context) ([]*experiments.Dataset, map[string]float64, []span, error) {
	specs := experiments.All()
	out := make([]*experiments.Dataset, len(specs))
	spans := make([]span, len(specs))
	errs := make([]error, len(specs))
	t0 := time.Now()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, s := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			out[i], errs[i] = experiments.RunCtx(ctx, id, experiments.Options{})
			spans[i] = span{ID: id, Name: "artifact", Parent: "regeneration",
				Start: int64(start.Sub(t0)), End: int64(time.Since(t0))}
		}(i, s.ID)
	}
	wg.Wait()
	per := map[string]float64{}
	for i, s := range specs {
		if errs[i] != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", s.ID, errs[i])
		}
		per[s.ID] = spans[i].dur()
	}
	return out, per, spans, nil
}

// artifactDigest fingerprints everything an artifact carries: its
// rendered text and its full-precision JSON, so any change to any
// simulated statistic changes the digest.
func artifactDigest(ds *experiments.Dataset) (string, string, error) {
	text, err := ds.Render()
	if err != nil {
		return "", "", err
	}
	var js bytes.Buffer
	if err := ds.WriteJSON(&js); err != nil {
		return "", "", err
	}
	h := sha256.New()
	h.Write([]byte(text))
	h.Write(js.Bytes())
	return text, hex.EncodeToString(h.Sum(nil)), nil
}

// checkArtifacts compares model artifacts byte for byte with the
// repository's golden files and every other artifact with the
// benchmark's reference digests (taken at the default seed).
func checkArtifacts(datasets []*experiments.Dataset) []string {
	var bad []string
	digests, err := readDigests()
	if err != nil {
		return []string{err.Error()}
	}
	for _, ds := range datasets {
		text, digest, err := artifactDigest(ds)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", ds.ID, err))
			continue
		}
		golden, err := os.ReadFile(filepath.Join(goldenDir, ds.ID+".txt"))
		switch {
		case err == nil:
			if string(golden) != text {
				bad = append(bad, fmt.Sprintf("%s: differs from its golden file", ds.ID))
			}
		case errors.Is(err, fs.ErrNotExist):
			if want, ok := digests[ds.ID]; !ok {
				bad = append(bad, fmt.Sprintf("%s: no golden file and no reference digest", ds.ID))
			} else if want != digest {
				bad = append(bad, fmt.Sprintf("%s: digest %s, reference %s", ds.ID, digest, want))
			}
		default:
			bad = append(bad, fmt.Sprintf("%s: %v", ds.ID, err))
		}
	}
	return bad
}

func readDigests() (map[string]string, error) {
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	return m, json.Unmarshal(data, &m)
}

// writeArtifactDigests regenerates every artifact and records the
// digest of each one that has no golden file.
func writeArtifactDigests() error {
	datasets, err := experiments.RunAllCtx(context.Background(), experiments.Options{}, 0)
	if err != nil {
		return err
	}
	m := map[string]string{}
	for _, ds := range datasets {
		if _, err := os.Stat(filepath.Join(goldenDir, ds.ID+".txt")); err == nil {
			continue
		}
		_, digest, err := artifactDigest(ds)
		if err != nil {
			return err
		}
		m[ds.ID] = digest
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(data, '\n'), 0o644)
}
