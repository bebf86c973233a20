// Command cohereload is a load generator for cohered: it drives a mix of
// /v1/bus and /v1/sweep requests at a configurable concurrency, duration,
// point mix, and cache-hit ratio, then prints a JSON summary with p50,
// p90, and p99 latency per scenario.
//
// Usage:
//
//	cohereload [-addr HOST:PORT] [-c 8] [-d 3s] [-hit-ratios 0.95,0.05]
//	           [-mix point:4,curve:1,sweep:1] [-warm-pool 64] [-procs 16]
//	           [-seed 1] [-chaos] [-jobs] [-gw]
//
// With -addr empty (the default) cohereload boots an in-process daemon —
// the same serve.Server behind cohered — on an ephemeral loopback port
// and loads that, so a drill needs no separately managed process.
// Point it at a running daemon with -addr to measure a real
// deployment.
//
// The hit ratio is enforced by key choice: "hit" requests draw their
// workload (the shd parameter) from a small warm pool that is primed
// before timing starts, so they are served from the evaluator's memo;
// "miss" requests use a counter-derived never-repeating workload, so
// they pay a cold solve. Comparing the hit-heavy and miss-heavy
// scenarios separates time spent in the model from time spent in the
// serving path — the latency-regression runbook in OPERATIONS.md builds
// on exactly that comparison.
//
// -chaos replaces the normal scenarios with an overload drill: it boots
// a deliberately tiny in-process daemon (two solve slots, two queue
// seats) with the internal/fault injector armed, then drives it with a
// patient client fleet (retrying 503s after honoring Retry-After) and
// an abandoning fleet (aggressive client timeouts, exercising the
// cancellation paths). The run fails — nonzero exit — unless the daemon
// sheds at least once and never answers 500: under overload plus
// injected faults the only acceptable failures are retryable 503s and
// clean timeouts. `make chaos-smoke` runs exactly this.
//
// -jobs replaces the normal scenarios with an async-job drill against
// the /v1/jobs API: it submits a multi-thousand-point grid job, streams
// the NDJSON results end to end (reporting row throughput and
// inter-batch latency as the "jobs_stream" scenario), then submits a
// second job and cancels it mid-stream ("jobs_cancel"). The run fails
// unless the stream delivers every point with a clean done trailer and
// the cancelled job disappears. `make jobs-smoke` runs exactly this.
//
// -gw replaces the normal scenarios with the gateway drill: it boots
// two in-process cohered backends with deliberately tight cache caps
// behind an in-process coheregw, then (1) verifies affinity routing is
// stable and key-canonical via the X-Coheregw-Backend header, (2)
// benches the affinity policy against a fresh round-robin control arm
// over an over-capacity warm pool — reporting each arm's aggregate
// backend cache-hit ratio and failing unless affinity wins by at least
// 1.5x with p99 no worse, (3) kills a backend mid-load and fails on any
// client-visible 500 or 502, and (4) snapshot-restarts a backend and
// fails unless the restored cache serves a previously-warmed key with
// zero new solves. `make gw-smoke` runs exactly this.
//
// Both -chaos and -jobs also accept -addr; pointing them at a coheregw
// address drives the same drills through the gateway tier. With -addr
// set, -chaos skips the gates that assume its own tiny self-booted
// daemon (nonzero sheds, the /metrics scrape) and keeps the
// client-facing one: no 500s, ever.
//
// Every mode prints its JSON report to stdout and writes no file: the
// drills are pass/fail gates, and the repository's benchmark record is
// perfbench's (`make bench-json`, gated by cmd/benchdiff).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"swcc/internal/core"
	"swcc/internal/fault"
	"swcc/internal/serve"
)

// sharedTransport is the one keep-alive connection pool every fleet in
// the process draws from. Each drill used to construct bare
// &http.Client{} values per phase, so every phase re-dialed and
// re-handshook its way up from zero connections — the measured p99 then
// included connection-establishment spikes the daemon never caused.
// One pool means steady-state keep-alive reuse across phases, which is
// also how a real deployment fronts cohered.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// newClient returns an http.Client on the shared transport. timeout 0
// means no client-side deadline (long-lived result streams).
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: sharedTransport, Timeout: timeout}
}

// loadConfig is one scenario's knobs.
type loadConfig struct {
	Concurrency int           // worker goroutines
	Duration    time.Duration // timed window per scenario
	HitRatio    float64       // fraction of requests drawn from the warm pool
	Mix         map[string]int
	WarmPool    int // distinct warm workloads
	Procs       int // machine size per query
	Seed        int64
}

// percentiles summarizes a latency sample in milliseconds.
type percentiles struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// summary is one scenario's result, the unit of the JSON report.
type summary struct {
	Label       string         `json:"label"`
	HitRatio    float64        `json:"hit_ratio"`
	Concurrency int            `json:"concurrency"`
	Duration    float64        `json:"duration_seconds"`
	Requests    int            `json:"requests"`
	Errors      int            `json:"errors"`
	RPS         float64        `json:"requests_per_second"`
	Latency     percentiles    `json:"latency"`
	Mix         map[string]int `json:"mix_counts"`

	// Chaos-mode extras; omitted from normal-mode reports.
	StatusCounts   map[string]int `json:"status_counts,omitempty"`
	Retries        int            `json:"retries,omitempty"`
	ClientTimeouts int            `json:"client_timeouts,omitempty"`

	// BackendHitRatio is the gateway drill's aggregate backend
	// cache-hit ratio over the timed window (hits / lookups summed
	// across the fleet, from each backend's own Stats deltas) — the
	// number the affinity-vs-round-robin comparison gates on.
	BackendHitRatio float64 `json:"backend_hit_ratio,omitempty"`

	// WindowP99 is the gateway drill's client p99 (ms) in each of its
	// timed windows; the affinity gate compares the arms window by
	// window.
	WindowP99 []float64 `json:"window_p99_ms,omitempty"`

	// BackendSendRatio is the hedging drill's backend-load amplification:
	// gateway-to-backend sends over client requests in the timed window.
	// 1.0 means every request cost one backend call; the hedged arm gates
	// on it staying under the hedge load band.
	BackendSendRatio float64 `json:"backend_send_ratio,omitempty"`
}

// chaosStats is the server's own accounting of a chaos run, scraped
// from /metrics after the scenarios finish.
type chaosStats struct {
	Sheds           int `json:"sheds"`
	Cancels         int `json:"cancels"`
	InjectedErrors  int `json:"injected_errors"`
	InjectedLatency int `json:"injected_latencies"`
	ServerError500s int `json:"server_500s"`
}

// report is the JSON document every mode prints to stdout; -chaos adds
// the chaos block.
type report struct {
	Tool      string      `json:"tool"`
	Target    string      `json:"target"`
	Scenarios []summary   `json:"scenarios"`
	Chaos     *chaosStats `json:"chaos,omitempty"`
}

// printReport writes rep to w as indented JSON, one trailing newline.
func printReport(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cohereload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohereload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "target daemon host:port (empty = boot an in-process daemon)")
	conc := fs.Int("c", 8, "concurrent workers")
	dur := fs.Duration("d", 3*time.Second, "timed window per scenario")
	ratios := fs.String("hit-ratios", "0.95,0.05", "comma-separated cache-hit ratios, one scenario each")
	mixSpec := fs.String("mix", "point:4,curve:1,sweep:1", "request mix as kind:weight pairs (kinds: point, curve, sweep)")
	warmPool := fs.Int("warm-pool", 64, "distinct workloads in the warm (cache-hit) pool")
	scheme := fs.String("scheme", "swflush", "coherence scheme the generated load names (any registered name or alias)")
	procs := fs.Int("procs", 16, "machine size per query")
	seed := fs.Int64("seed", 1, "RNG seed for the request schedule")
	chaos := fs.Bool("chaos", false, "overload drill: fault-injected in-process daemon, or -addr to drive an existing daemon/gateway (fails on any 500)")
	jobsMode := fs.Bool("jobs", false, "async-job drill: submit, stream, and cancel /v1/jobs sweeps (fails on lost rows or a surviving cancelled job)")
	gwMode := fs.Bool("gw", false, "gateway drill: affinity-vs-roundrobin bench, mid-load backend kill, and snapshot warm restart (fails unless affinity wins and failover is clean)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *conc < 1 || *warmPool < 1 || *procs < 1 || *dur <= 0 {
		return fmt.Errorf("-c, -warm-pool, -procs must be >= 1 and -d > 0")
	}
	// Fail fast on a typo'd scheme instead of drilling 100% errors.
	if _, err := core.SchemeByName(*scheme); err != nil {
		return err
	}
	loadScheme = *scheme
	modes := 0
	for _, m := range []bool{*chaos, *jobsMode, *gwMode} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-chaos, -jobs, and -gw are mutually exclusive drills")
	}
	if *chaos {
		return runChaos(stdout, stderr, *addr, *conc, *dur, *seed, *procs)
	}
	if *jobsMode {
		return runJobs(stdout, stderr, *addr)
	}
	if *gwMode {
		if *addr != "" {
			return fmt.Errorf("-gw boots its own backend fleet and gateway; it cannot target -addr")
		}
		return runGw(stdout, stderr, *conc, *dur, *seed)
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	var hitRatios []float64
	for _, s := range strings.Split(*ratios, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r < 0 || r > 1 {
			return fmt.Errorf("-hit-ratios: %q is not a ratio in [0,1]", s)
		}
		hitRatios = append(hitRatios, r)
	}

	target := *addr
	if target == "" {
		stopSrv, bound, err := startLocalDaemon()
		if err != nil {
			return err
		}
		defer stopSrv()
		target = bound
		fmt.Fprintf(stderr, "cohereload: booted in-process daemon on %s\n", target)
	}
	base := "http://" + target

	rep := report{Tool: "cohereload", Target: target}
	for _, r := range hitRatios {
		cfg := loadConfig{
			Concurrency: *conc, Duration: *dur, HitRatio: r,
			Mix: mix, WarmPool: *warmPool, Procs: *procs, Seed: *seed,
		}
		s, err := runLoad(context.Background(), base, cfg)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, %d errors, p50 %.3fms p99 %.3fms\n",
			s.Label, s.Requests, s.Errors, s.Latency.P50, s.Latency.P99)
	}
	return printReport(stdout, rep)
}

// startLocalDaemon boots a serve.Server over real HTTP on an ephemeral
// loopback port and returns a stop func plus the bound host:port.
func startLocalDaemon() (func(), string, error) {
	srv := serve.NewServer(serve.Config{
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return func() { hs.Close() }, ln.Addr().String(), nil
}

// parseMix turns "point:4,curve:1,sweep:1" into weights.
func parseMix(spec string) (map[string]int, error) {
	mix := map[string]int{}
	total := 0
	for _, part := range strings.Split(spec, ",") {
		kind, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-mix: %q is not kind:weight", part)
		}
		switch kind {
		case "point", "curve", "sweep":
		default:
			return nil, fmt.Errorf("-mix: unknown kind %q (want point, curve, or sweep)", kind)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix: weight %q is not a non-negative integer", weight)
		}
		mix[kind] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix: all weights are zero")
	}
	return mix, nil
}

// splitmix64 is the SplitMix64 mixing function — the same mixer
// internal/fault uses for its schedules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// workerSeed derives worker w's RNG seed by hashing (seed, w) through
// splitmix64. The obvious seed+w was a bug: run A's worker 1 and run
// B's worker 0 collided whenever the base seeds differed by one, so
// two runs meant to be independent replayed each other's request
// schedules shifted by a worker. Hashing makes every (seed, worker)
// pair an unrelated stream while keeping the schedule a pure function
// of the flags.
func workerSeed(seed int64, worker int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(worker)+1)))
}

// warmShd returns the i-th warm-pool workload's shd value.
func warmShd(i, pool int) float64 {
	return 0.1 + 0.8*float64(i)/float64(pool)
}

// missShd derives a practically never-repeating shd from a counter: the
// fractional part of n times the golden ratio walks the (0.1, 0.9) range
// without cycling, so each miss request is a distinct cache key. A rare
// float64-rounding collision only turns one intended miss into a hit,
// which biases the measured ratio, not the correctness.
func missShd(n uint64) float64 {
	const phi = 0.6180339887498949
	f := float64(n) * phi
	return 0.1 + 0.8*(f-math.Floor(f))
}

// runLoad primes the warm pool, then drives cfg's mix at cfg.Concurrency
// for cfg.Duration and summarizes the latencies.
func runLoad(ctx context.Context, base string, cfg loadConfig) (summary, error) {
	client := newClient(30 * time.Second)

	// Prime: every warm-pool key solved once, so in-window "hit"
	// requests measure the cache path, not a first-touch solve.
	for i := 0; i < cfg.WarmPool; i++ {
		body := pointBody(warmShd(i, cfg.WarmPool), cfg.Procs)
		if _, _, err := post(ctx, client, base+"/v1/bus", body); err != nil {
			return summary{}, fmt.Errorf("priming warm pool: %w", err)
		}
	}

	var kinds []string
	for kind, w := range cfg.Mix {
		for i := 0; i < w; i++ {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds) // map order is random; the schedule should not be

	var (
		mu        sync.Mutex
		latencies []float64
		mixCounts = map[string]int{}
		errs      int
		requests  int
		missSeq   uint64 // claimed in batches, one per worker draw
		seqMu     sync.Mutex
	)
	nextMiss := func() uint64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		missSeq++
		return missSeq
	}

	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(cfg.Seed, worker)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				kind := kinds[rng.Intn(len(kinds))]
				hit := rng.Float64() < cfg.HitRatio
				shd := func() float64 {
					if hit {
						return warmShd(rng.Intn(cfg.WarmPool), cfg.WarmPool)
					}
					return missShd(nextMiss())
				}
				var path, body string
				switch kind {
				case "point":
					path, body = "/v1/bus", pointBody(shd(), cfg.Procs)
				case "curve":
					path, body = "/v1/bus", curveBody(shd(), cfg.Procs)
				case "sweep":
					pts := make([]string, 8)
					for i := range pts {
						pts[i] = pointBody(shd(), cfg.Procs)
					}
					path, body = "/v1/sweep", `{"points": [`+strings.Join(pts, ",")+`]}`
				}
				start := time.Now()
				code, _, err := post(ctx, client, base+path, body)
				elapsed := time.Since(start).Seconds()
				mu.Lock()
				requests++
				mixCounts[kind]++
				if err != nil || code != http.StatusOK {
					errs++
				} else {
					latencies = append(latencies, elapsed)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	sort.Float64s(latencies)
	s := summary{
		Label:       fmt.Sprintf("hit_ratio_%g", cfg.HitRatio),
		HitRatio:    cfg.HitRatio,
		Concurrency: cfg.Concurrency,
		Duration:    cfg.Duration.Seconds(),
		Requests:    requests,
		Errors:      errs,
		RPS:         float64(requests) / cfg.Duration.Seconds(),
		Latency:     summarize(latencies),
		Mix:         mixCounts,
	}
	return s, nil
}

// loadScheme is the scheme every generated /v1/bus and /v1/sweep body
// names, set by the -scheme flag (default swflush, the historical load
// shape). Any registered scheme name or alias works; the daemon under
// test resolves it through the same registry.
var loadScheme = "swflush"

func pointBody(shd float64, procs int) string {
	return fmt.Sprintf(`{"scheme": %q, "params": {"shd": %g}, "procs": %d, "point": true}`, loadScheme, shd, procs)
}

func curveBody(shd float64, procs int) string {
	return fmt.Sprintf(`{"scheme": %q, "params": {"shd": %g}, "procs": %d}`, loadScheme, shd, procs)
}

func post(ctx context.Context, client *http.Client, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// summarize computes percentiles from a sorted sample (milliseconds).
func summarize(sorted []float64) percentiles {
	if len(sorted) == 0 {
		return percentiles{}
	}
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i] * 1000
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return percentiles{
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
		Mean: sum / float64(len(sorted)) * 1000,
		Max:  sorted[len(sorted)-1] * 1000,
	}
}

// --- jobs mode ---

// jobGridBody is the drill's grid: 2 schemes x 10 axis values x 1000
// machine sizes = 20000 result rows, big enough that the spool's
// back-pressure and the streaming path do real work, small enough that
// `make jobs-smoke` finishes in seconds.
const jobGridBody = `{"label":"cohereload","schemes":["swflush","dragon"],` +
	`"axis":"apl","from":4,"to":40,"steps":10,"procs_from":1,"procs_to":1000}`

const jobGridRows = 2 * 10 * 1000

// runJobs drives the async-job drill: stream one grid job end to end,
// then cancel a second one mid-stream. It returns an error — failing
// the process — if any row is lost, the trailer is missing or unclean,
// or the cancelled job remains resident.
func runJobs(stdout, stderr io.Writer, addr string) error {
	target := addr
	if target == "" {
		stopSrv, bound, err := startLocalDaemon()
		if err != nil {
			return err
		}
		defer stopSrv()
		target = bound
		fmt.Fprintf(stderr, "cohereload: booted in-process daemon on %s\n", target)
	}
	base := "http://" + target
	client := newClient(0) // no timeout: the results stream is long-lived

	rep := report{Tool: "cohereload", Target: target + " (jobs)"}

	// Scenario 1: submit and stream every row.
	id, err := submitJob(client, base)
	if err != nil {
		return err
	}
	start := time.Now()
	rows, gaps, trailerState, err := streamJob(client, base, id)
	if err != nil {
		return fmt.Errorf("jobs_stream: %w", err)
	}
	elapsed := time.Since(start)
	if rows != jobGridRows {
		return fmt.Errorf("jobs_stream: streamed %d rows, want %d", rows, jobGridRows)
	}
	if trailerState != "done" {
		return fmt.Errorf("jobs_stream: trailer state %q, want done", trailerState)
	}
	sort.Float64s(gaps)
	rep.Scenarios = append(rep.Scenarios, summary{
		Label:    "jobs_stream",
		Duration: elapsed.Seconds(),
		Requests: rows,
		RPS:      float64(rows) / elapsed.Seconds(),
		Latency:  summarize(gaps), // inter-batch gaps, not per-request latency
		Mix:      map[string]int{"rows": rows},
	})
	fmt.Fprintf(stderr, "cohereload: jobs_stream: %d rows in %.2fs (%.0f rows/s)\n",
		rows, elapsed.Seconds(), float64(rows)/elapsed.Seconds())

	// Scenario 2: cancel mid-stream; the job must vanish.
	id, err = submitJob(client, base)
	if err != nil {
		return err
	}
	start = time.Now()
	partial, err := cancelJobMidStream(client, base, id)
	if err != nil {
		return fmt.Errorf("jobs_cancel: %w", err)
	}
	elapsed = time.Since(start)
	rep.Scenarios = append(rep.Scenarios, summary{
		Label:    "jobs_cancel",
		Duration: elapsed.Seconds(),
		Requests: partial,
		RPS:      float64(partial) / elapsed.Seconds(),
		Mix:      map[string]int{"rows": partial},
	})
	fmt.Fprintf(stderr, "cohereload: jobs_cancel: cancelled after %d rows; job gone\n", partial)
	return printReport(stdout, rep)
}

// submitJob posts the drill grid and returns the job ID.
func submitJob(client *http.Client, base string) (string, error) {
	code, data, err := post(context.Background(), client, base+"/v1/jobs/sweep", jobGridBody)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("submit: status %d: %s", code, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return "", fmt.Errorf("submit: bad response %s", data)
	}
	return sub.ID, nil
}

// streamJob reads one job's NDJSON results to the trailer, returning
// the data-row count, the inter-batch gaps (seconds, one per {"seq"}
// marker), and the trailer's state.
func streamJob(client *http.Client, base, id string) (rows int, gaps []float64, state string, err error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return 0, nil, "", fmt.Errorf("results: status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	last := time.Now()
	for sc.Scan() {
		var probe struct {
			Seq  *uint64 `json:"seq"`
			Done *bool   `json:"done"`
			St   string  `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return rows, gaps, "", fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case probe.Done != nil:
			return rows, gaps, probe.St, sc.Err()
		case probe.Seq != nil:
			now := time.Now()
			gaps = append(gaps, now.Sub(last).Seconds())
			last = now
		default:
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		return rows, gaps, "", err
	}
	return rows, gaps, "", fmt.Errorf("stream ended without a trailer")
}

// cancelJobMidStream reads a few batches of the job's results, deletes
// the job, and verifies it is gone. Returns the rows read before the
// cancel.
func cancelJobMidStream(client *http.Client, base, id string) (int, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	rows, markers := 0, 0
	for sc.Scan() && markers < 2 {
		if strings.Contains(sc.Text(), `"seq"`) {
			markers++
		} else if !strings.Contains(sc.Text(), `"done"`) {
			rows++
		}
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return rows, err
	}
	dresp, err := client.Do(req)
	if err != nil {
		return rows, err
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		return rows, fmt.Errorf("delete: status %d", dresp.StatusCode)
	}
	sresp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return rows, err
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		return rows, fmt.Errorf("cancelled job still resident: status %d", sresp.StatusCode)
	}
	return rows, nil
}

// --- chaos mode ---

// chaosRequestTimeout is the chaos daemon's per-request model budget —
// short, so overload converts to 503s within the drill window.
const chaosRequestTimeout = 300 * time.Millisecond

// startChaosDaemon boots the drill target: a deliberately tiny daemon
// (two solve slots, two queue seats) with the deterministic injector
// adding latency and transient errors to every solve.
func startChaosDaemon(seed int64) (func(), string, error) {
	inj := fault.New(fault.Config{
		Seed:     seed,
		Latency:  20 * time.Millisecond,
		LatencyP: 0.4,
		ErrorP:   0.2,
	})
	srv := serve.NewServer(serve.Config{
		MaxInFlight:    2,
		MaxQueueDepth:  2,
		RequestTimeout: chaosRequestTimeout,
		Fault:          inj,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return func() { hs.Close() }, ln.Addr().String(), nil
}

// runChaos drives the overload drill: a patient fleet and an abandoning
// fleet against the chaos daemon, then verdicts the run from the
// daemon's own metrics. It returns an error — failing the process —
// if the daemon ever answered 500 or never shed, so `make chaos-smoke`
// is a real gate, not a report generator. With addr set it drives an
// existing daemon or gateway instead of booting its own; the verdicts
// that assume the tiny self-booted daemon (nonzero sheds, the /metrics
// scrape) are skipped then, the no-500s one is not.
func runChaos(stdout, stderr io.Writer, addr string, conc int, dur time.Duration, seed int64, procs int) error {
	target := addr
	selfBooted := addr == ""
	if selfBooted {
		stopSrv, bound, err := startChaosDaemon(seed)
		if err != nil {
			return err
		}
		defer stopSrv()
		target = bound
		fmt.Fprintf(stderr, "cohereload: chaos daemon on %s (2 slots, 2 queue seats, faults armed)\n", target)
	} else {
		fmt.Fprintf(stderr, "cohereload: chaos fleets targeting %s\n", target)
	}
	base := "http://" + target

	rep := report{Tool: "cohereload", Target: target + " (chaos)"}
	// Patient clients wait out the server's full budget and retry 503s
	// after honoring Retry-After; abandoning clients hang up after a
	// timeout far below the injected latency, exercising cancellation.
	for _, sc := range []struct {
		label         string
		clientTimeout time.Duration
		seed          int64
	}{
		{"chaos_patient", 0, seed},
		{"chaos_abandoning", 30 * time.Millisecond, seed + 1},
	} {
		s := chaosScenario(base, sc.label, conc, dur, sc.seed, procs, sc.clientTimeout)
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, status %v, %d retries, %d client timeouts\n",
			s.Label, s.Requests, s.StatusCounts, s.Retries, s.ClientTimeouts)
	}

	var stats chaosStats
	if selfBooted {
		// An external target (a real daemon, or a gateway whose
		// /metrics page speaks swcc_gw_*) has no scrapeable overload
		// block; the clients' own status tallies are the verdict then.
		var err error
		stats, err = scrapeChaosStats(base)
		if err != nil {
			return err
		}
		rep.Chaos = &stats
	}

	if err := printReport(stdout, rep); err != nil {
		return err
	}

	client500s := 0
	for _, s := range rep.Scenarios {
		client500s += s.StatusCounts["500"]
	}
	if stats.ServerError500s > 0 || client500s > 0 {
		return fmt.Errorf("chaos: daemon answered 500 under injected faults (server counted %d, clients saw %d) — overload must stay 503/504/499",
			stats.ServerError500s, client500s)
	}
	if !selfBooted {
		fmt.Fprintf(stderr, "cohereload: chaos ok against %s: 0 client-visible 500s\n", target)
		return nil
	}
	if stats.Sheds == 0 {
		return fmt.Errorf("chaos: admission control never shed; the drill did not reach overload (raise -c or -d)")
	}
	fmt.Fprintf(stderr, "cohereload: chaos ok: %d sheds, %d cancels, %d injected errors, 0 server 500s\n",
		stats.Sheds, stats.Cancels, stats.InjectedErrors)
	return nil
}

// chaosScenario runs one fleet for the window and tallies outcomes by
// status code. clientTimeout 0 means patient: the client outlasts the
// server's own budget.
func chaosScenario(base, label string, conc int, dur time.Duration, seed int64, procs int, clientTimeout time.Duration) summary {
	client := newClient(0)
	var (
		mu        sync.Mutex
		latencies []float64
		status    = map[string]int{}
		requests  int
		retries   int
		timeouts  int
		errs      int
		missSeq   uint64
		seqMu     sync.Mutex
	)
	nextMiss := func() uint64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		missSeq++
		return missSeq
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(seed, worker)))
			for time.Now().Before(deadline) {
				// Distinct keys so every admitted request pays a real solve.
				body := pointBody(missShd(nextMiss()), procs)
				// Retry loop: a 503 is retried (bounded) after honoring the
				// server's Retry-After, capped to the remaining window.
				for attempt := 0; attempt < 3; attempt++ {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if clientTimeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, clientTimeout)
					}
					start := time.Now()
					code, retryAfter, err := postStatus(ctx, client, base+"/v1/bus", body)
					elapsed := time.Since(start).Seconds()
					cancel()
					mu.Lock()
					requests++
					switch {
					case err != nil && ctx.Err() != nil:
						timeouts++
					case err != nil:
						errs++
					default:
						status[strconv.Itoa(code)]++
						if code == http.StatusOK {
							latencies = append(latencies, elapsed)
						}
					}
					if err == nil && code == http.StatusServiceUnavailable && attempt < 2 {
						retries++
						mu.Unlock()
						backoff := time.Duration(retryAfter) * time.Second
						if remaining := time.Until(deadline); backoff > remaining {
							backoff = remaining
						}
						if backoff > 0 {
							// Jitter so a shed burst does not retry in lockstep.
							time.Sleep(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2+1))))
						}
						continue
					}
					mu.Unlock()
					break
				}
			}
		}(w)
	}
	wg.Wait()

	sort.Float64s(latencies)
	return summary{
		Label:          label,
		Concurrency:    conc,
		Duration:       dur.Seconds(),
		Requests:       requests,
		Errors:         errs,
		RPS:            float64(requests) / dur.Seconds(),
		Latency:        summarize(latencies),
		Mix:            map[string]int{"point": requests},
		StatusCounts:   status,
		Retries:        retries,
		ClientTimeouts: timeouts,
	}
}

// postStatus posts one request and returns the status code plus the
// parsed Retry-After header (seconds, 0 when absent).
func postStatus(ctx context.Context, client *http.Client, url, body string) (int, int, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return resp.StatusCode, ra, nil
}

// scrapeChaosStats reads the daemon's own overload accounting off
// /metrics — the drill's verdict comes from the server, not from what
// the clients happened to observe.
func scrapeChaosStats(base string) (chaosStats, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return chaosStats{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return chaosStats{}, err
	}
	text := string(data)
	get := func(name string) int {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(text)
		if m == nil {
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	stats := chaosStats{
		Sheds:           get("swcc_http_sheds_total"),
		Cancels:         get("swcc_http_cancels_total"),
		InjectedErrors:  get(`swcc_fault_injections_total{kind="error"}`),
		InjectedLatency: get(`swcc_fault_injections_total{kind="latency"}`),
	}
	for _, m := range regexp.MustCompile(`code="500"\} (\d+)`).FindAllStringSubmatch(text, -1) {
		n, _ := strconv.Atoi(m[1])
		stats.ServerError500s += n
	}
	return stats, nil
}
