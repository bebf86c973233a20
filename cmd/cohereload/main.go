// Command cohereload is a load generator for cohered: it drives a mix of
// /v1/bus and /v1/sweep requests at a configurable concurrency, duration,
// point mix, and cache-hit ratio, then prints a JSON summary with p50,
// p90, and p99 latency per scenario.
//
// Usage:
//
//	cohereload [-addr HOST:PORT] [-c 8] [-d 3s] [-hit-ratios 0.95,0.05]
//	           [-mix point:4,curve:1,sweep:1] [-warm-pool 64] [-procs 16]
//	           [-seed 1] [-chaos] [-gw]
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
// sheds at least once, never answers 500, and no request fails in
// transport except by its client timeout: under overload plus injected
// faults the only acceptable failures are retryable 503s and clean
// timeouts. `make chaos-smoke` runs exactly this.
//
// -gw replaces the normal scenarios with the gateway drill: it boots
// two in-process cohered backends with deliberately tight cache caps
// behind an in-process coheregw, then (1) verifies affinity routing is
// stable and key-canonical via the X-Coheregw-Backend header, (2)
// benches the affinity policy against a fresh round-robin control arm
// over an over-capacity warm pool — reporting each arm's aggregate
// backend cache-hit ratio and failing unless affinity wins by at least
// 1.5x with p99 no worse, (3) cuts an injected latency tail by hedging
// within a bounded backend load, (4) kills a backend mid-load and fails
// on any client-visible 500 or 502, and (5) reloads the backend set
// mid-load and fails on any client-visible 5xx. `make gw-smoke` runs
// exactly this.
//
// -chaos also accepts -addr; pointing it at a coheregw address drives
// the same drill through the gateway tier. With -addr set, -chaos skips
// the gates that assume its own tiny self-booted daemon (nonzero sheds,
// the /metrics scrape) and keeps the client-facing ones: no 500s and no
// transport errors, ever.
//
// Every drill's load comes from one closed-loop driver, drive: a fleet
// of workers, each posting its next request as soon as the last one
// answers, with its own seeded request schedule. The scenarios differ
// only in the fleet they hand it — target, concurrency, window, seed,
// request bodies, client timeout, and whether a 503 is retried after
// Retry-After — so a change to how the drills measure is made once.
//
// Every mode prints its JSON report to stdout and writes no file: the
// drills are pass/fail gates, and the repository's benchmark record is
// perfbench's (`make bench-json`, gated by cmd/benchdiff).
package main

import (
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// defaultScheme is the scheme generated load names unless -scheme says
// otherwise, and the one the gateway drill always uses.
const defaultScheme = "swflush"

// loadConfig is one normal-mode scenario's knobs beyond its fleet.
type loadConfig struct {
	Scheme   string  // scheme every generated body names
	HitRatio float64 // fraction of requests drawn from the warm pool
	Mix      mix
	WarmPool int // distinct warm workloads
	Procs    int // machine size per query
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
	scheme := fs.String("scheme", defaultScheme, "coherence scheme the generated load names (any registered name or alias)")
	procs := fs.Int("procs", 16, "machine size per query")
	seed := fs.Int64("seed", 1, "RNG seed for the request schedule")
	chaos := fs.Bool("chaos", false, "overload drill: fault-injected in-process daemon, or -addr to drive an existing daemon/gateway (fails on any 500)")
	gwMode := fs.Bool("gw", false, "gateway drill: affinity-vs-roundrobin bench, hedging, mid-load backend kill, and live reload (fails unless affinity wins and failover is clean)")
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
	if *chaos && *gwMode {
		return fmt.Errorf("-chaos and -gw are mutually exclusive drills")
	}
	if *chaos {
		return runChaos(stdout, stderr, *addr, *conc, *dur, *seed, *scheme, *procs)
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
		// Written so NaN, which every comparison rejects, fails too.
		if err != nil || !(r >= 0 && r <= 1) {
			return fmt.Errorf("-hit-ratios: %q is not a ratio in [0,1]", s)
		}
		hitRatios = append(hitRatios, r)
	}

	target, err := resolveTarget(stderr, *addr, serve.Config{})
	if err != nil {
		return err
	}
	defer target.stop()

	rep := report{Tool: "cohereload", Target: target.addr}
	for _, r := range hitRatios {
		f := fleet{base: target.url, concurrency: *conc, duration: *dur, seed: *seed, timeout: 30 * time.Second}
		cfg := loadConfig{Scheme: *scheme, HitRatio: r, Mix: mix, WarmPool: *warmPool, Procs: *procs}
		s, err := runLoad(context.Background(), f, cfg)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, %d errors, p50 %.3fms p99 %.3fms\n",
			s.Label, s.Requests, s.Errors, s.Latency.P50, s.Latency.P99)
	}
	return printReport(stdout, rep)
}

// backend is a cohered replica booted in-process: a serve.Server over
// real HTTP on an ephemeral loopback port. A backend standing for an
// -addr target has no server of its own.
type backend struct {
	srv  *serve.Server
	hs   *http.Server
	addr string // host:port
	url  string // http://host:port
}

// startBackend boots a serve.Server with cfg, its logs discarded.
func startBackend(cfg serve.Config) (*backend, error) {
	cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	srv := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	addr := ln.Addr().String()
	return &backend{srv: srv, hs: hs, addr: addr, url: "http://" + addr}, nil
}

// resolveTarget returns addr as a backend to load, or, with addr empty,
// boots an in-process daemon with cfg in its place.
func resolveTarget(stderr io.Writer, addr string, cfg serve.Config) (*backend, error) {
	if addr != "" {
		return &backend{addr: addr, url: "http://" + addr}, nil
	}
	b, err := startBackend(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "cohereload: booted in-process daemon on %s\n", b.addr)
	return b, nil
}

// stop hard-closes a booted backend: listener, in-flight connections,
// jobs. It does nothing for an -addr target.
func (b *backend) stop() {
	if b.srv == nil {
		return
	}
	b.hs.Close()
	b.srv.Close()
}

// mix is a parsed -mix: its kinds in sorted order, each with its weight.
type mix struct {
	kinds   []string
	weights []int
	total   int
}

// parseMix turns "point:4,curve:1,sweep:1" into a mix.
func parseMix(spec string) (mix, error) {
	weights := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		kind, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return mix{}, fmt.Errorf("-mix: %q is not kind:weight", part)
		}
		switch kind {
		case "point", "curve", "sweep":
		default:
			return mix{}, fmt.Errorf("-mix: unknown kind %q (want point, curve, or sweep)", kind)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return mix{}, fmt.Errorf("-mix: weight %q is not a non-negative integer", weight)
		}
		weights[kind] = w
	}
	var m mix
	for kind := range weights {
		m.kinds = append(m.kinds, kind)
	}
	sort.Strings(m.kinds) // map order is random; the schedule should not be
	for _, kind := range m.kinds {
		w := weights[kind]
		if w > math.MaxInt-m.total {
			return mix{}, fmt.Errorf("-mix: total weight overflows int")
		}
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return mix{}, fmt.Errorf("-mix: all weights are zero")
	}
	return m, nil
}

// pick maps a draw in [0, m.total) to an index into m.kinds. Each kind
// owns a run of consecutive draws as long as its weight, in sorted
// order — the kind that a sorted slice of weight copies of every kind
// holds at that index, without building the slice.
func (m mix) pick(draw int) int {
	for i, w := range m.weights {
		if draw < w {
			return i
		}
		draw -= w
	}
	panic(fmt.Sprintf("cohereload: mix draw %d out of range [0,%d)", draw, m.total))
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

// fleet is one closed-loop client fleet: concurrency workers, each
// posting its next request as soon as the last one is answered, until
// duration has passed. Worker w draws its schedule from its own rng,
// seeded workerSeed(seed, w), so a fleet's requests are a pure
// function of its fields.
type fleet struct {
	base        string // target base URL, http://host:port
	concurrency int
	duration    time.Duration
	seed        int64
	// body returns the next request's path and JSON body.
	body func(rng *rand.Rand) (path, body string)
	// timeout is each request's client-side deadline; 0 means none. A
	// request that outlives it is a client timeout, not an error.
	timeout time.Duration
	// retry503 retries a 503 after honoring its Retry-After, capped to
	// the rest of the window and jittered, up to three attempts in all:
	// the chaos drill's patient client.
	retry503 bool
}

// result is what a fleet's window recorded.
type result struct {
	latencies []float64      // seconds, one per 200 answer
	requests  int            // attempts, retries included
	errs      int            // transport errors other than client timeouts
	timeouts  int            // requests abandoned at the client timeout
	retries   int            // 503s retried
	status    map[string]int // answered attempts by status code
}

// add folds o into r.
func (r *result) add(o result) {
	r.latencies = append(r.latencies, o.latencies...)
	r.requests += o.requests
	r.errs += o.errs
	r.timeouts += o.timeouts
	r.retries += o.retries
	if r.status == nil {
		r.status = map[string]int{}
	}
	for code, n := range o.status {
		r.status[code] += n
	}
}

// drive runs f's window and returns what its workers recorded. The
// driver draws nothing from a worker's rng itself: f.body and the retry
// jitter are its only draws, so every seed replays the same schedule.
// Each worker records into its own result, merged once all have
// stopped, so no request waits on another worker's bookkeeping.
func drive(ctx context.Context, f fleet) result {
	client := newClient(0) // per-request deadlines come from f.timeout
	deadline := time.Now().Add(f.duration)
	perWorker := make([]result, f.concurrency)
	var wg sync.WaitGroup
	for w := range perWorker {
		wg.Add(1)
		go func(r *result, rng *rand.Rand) {
			defer wg.Done()
			r.status = map[string]int{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				path, body := f.body(rng)
				for attempt := 1; ; attempt++ {
					code, retryAfter := r.send(ctx, client, f, path, body)
					if !f.retry503 || code != http.StatusServiceUnavailable || attempt == 3 {
						break
					}
					r.retries++
					backoff := time.Duration(retryAfter) * time.Second
					if remaining := time.Until(deadline); backoff > remaining {
						backoff = remaining
					}
					if backoff > 0 {
						// Jitter so a shed burst does not retry in lockstep.
						time.Sleep(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2+1))))
					}
				}
			}
		}(&perWorker[w], rand.New(rand.NewSource(workerSeed(f.seed, w))))
	}
	wg.Wait()
	var total result
	for _, r := range perWorker {
		total.add(r)
	}
	return total
}

// send posts one request under f's client timeout and records its
// outcome in r. It returns the status code (0 when none came back) and
// the Retry-After seconds.
func (r *result) send(ctx context.Context, client *http.Client, f fleet, path, body string) (code, retryAfter int) {
	reqCtx, cancel := ctx, context.CancelFunc(func() {})
	if f.timeout > 0 {
		reqCtx, cancel = context.WithTimeout(ctx, f.timeout)
	}
	defer cancel()
	start := time.Now()
	code, _, retryAfter, err := post(reqCtx, client, f.base+path, body)
	elapsed := time.Since(start).Seconds()
	r.requests++
	switch {
	case err != nil && reqCtx.Err() != nil:
		r.timeouts++
	case err != nil:
		r.errs++
	default:
		r.status[strconv.Itoa(code)]++
		if code == http.StatusOK {
			r.latencies = append(r.latencies, elapsed)
		}
	}
	if err != nil {
		return 0, 0
	}
	return code, retryAfter
}

// summary turns r, recorded by f, into its report entry. With statuses
// the entry tallies answers by status code, and Errors counts transport
// errors alone; without, the fleet expects nothing but 200s, and Errors
// counts every request that did not get one.
func (r result) summary(label string, f fleet, statuses bool) summary {
	s := summary{
		Label:       label,
		Concurrency: f.concurrency,
		Duration:    f.duration.Seconds(),
		Requests:    r.requests,
		Errors:      r.requests - len(r.latencies),
		RPS:         float64(r.requests) / f.duration.Seconds(),
		Latency:     summarize(r.latencies),
		Mix:         map[string]int{"point": r.requests},
	}
	if statuses {
		s.Errors, s.StatusCounts, s.Retries, s.ClientTimeouts = r.errs, r.status, r.retries, r.timeouts
	}
	return s
}

// runLoad primes the warm pool, then drives cfg's mix with f and
// summarizes the window.
func runLoad(ctx context.Context, f fleet, cfg loadConfig) (summary, error) {
	client := newClient(30 * time.Second)

	// Prime: every warm-pool key solved once, so in-window "hit"
	// requests measure the cache path, not a first-touch solve.
	for i := 0; i < cfg.WarmPool; i++ {
		body := pointBody(cfg.Scheme, warmShd(i, cfg.WarmPool), cfg.Procs)
		if _, _, _, err := post(ctx, client, f.base+"/v1/bus", body); err != nil {
			return summary{}, fmt.Errorf("priming warm pool: %w", err)
		}
	}

	var missSeq atomic.Uint64
	kindCounts := make([]atomic.Int64, len(cfg.Mix.kinds))
	f.body = func(rng *rand.Rand) (string, string) {
		k := cfg.Mix.pick(rng.Intn(cfg.Mix.total))
		kindCounts[k].Add(1)
		hit := rng.Float64() < cfg.HitRatio
		shd := func() float64 {
			if hit {
				return warmShd(rng.Intn(cfg.WarmPool), cfg.WarmPool)
			}
			return missShd(missSeq.Add(1))
		}
		switch cfg.Mix.kinds[k] {
		case "point":
			return "/v1/bus", pointBody(cfg.Scheme, shd(), cfg.Procs)
		case "curve":
			return "/v1/bus", curveBody(cfg.Scheme, shd(), cfg.Procs)
		}
		pts := make([]string, 8)
		for i := range pts {
			pts[i] = pointBody(cfg.Scheme, shd(), cfg.Procs)
		}
		return "/v1/sweep", `{"points": [` + strings.Join(pts, ",") + `]}`
	}
	s := drive(ctx, f).summary(fmt.Sprintf("hit_ratio_%g", cfg.HitRatio), f, false)
	s.HitRatio = cfg.HitRatio
	s.Mix = map[string]int{}
	for i, kind := range cfg.Mix.kinds {
		if n := kindCounts[i].Load(); n > 0 {
			s.Mix[kind] = int(n)
		}
	}
	return s, nil
}

func pointBody(scheme string, shd float64, procs int) string {
	return fmt.Sprintf(`{"scheme": %q, "params": {"shd": %g}, "procs": %d, "point": true}`, scheme, shd, procs)
}

func curveBody(scheme string, shd float64, procs int) string {
	return fmt.Sprintf(`{"scheme": %q, "params": {"shd": %g}, "procs": %d}`, scheme, shd, procs)
}

// post sends one JSON POST and returns the status code, the response
// body, and the Retry-After header in seconds (0 when absent).
func post(ctx context.Context, client *http.Client, url, body string) (code int, data []byte, retryAfter int, err error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	return resp.StatusCode, data, retryAfter, err
}

// get fetches url and returns its body, failing on any status but 200.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, err
}

// summarize sorts a latency sample (seconds) in place and computes its
// percentiles in milliseconds.
func summarize(sample []float64) percentiles {
	if len(sample) == 0 {
		return percentiles{}
	}
	sort.Float64s(sample)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sample)))) - 1
		if i < 0 {
			i = 0
		}
		return sample[i] * 1000
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return percentiles{
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
		Mean: sum / float64(len(sample)) * 1000,
		Max:  sample[len(sample)-1] * 1000,
	}
}

// --- chaos mode ---

// chaosRequestTimeout is the chaos daemon's per-request model budget —
// short, so overload converts to 503s within the drill window.
const chaosRequestTimeout = 300 * time.Millisecond

// runChaos drives the overload drill: a patient fleet and an abandoning
// fleet against the chaos daemon, then verdicts the run from the
// daemon's own metrics. It returns an error — failing the process —
// if the daemon ever answered 500 or never shed, or a request failed in
// transport other than by its client timeout, so `make chaos-smoke`
// is a real gate, not a report generator. With addr set it drives an
// existing daemon or gateway instead of booting its own; the verdicts
// that assume the tiny self-booted daemon (nonzero sheds, the /metrics
// scrape) are skipped then, the client-facing ones are not.
func runChaos(stdout, stderr io.Writer, addr string, conc int, dur time.Duration, seed int64, scheme string, procs int) error {
	// The self-booted target is deliberately tiny (two solve slots, two
	// queue seats), with the deterministic injector adding latency and
	// transient errors to every solve.
	target, err := resolveTarget(stderr, addr, serve.Config{
		MaxInFlight:    2,
		MaxQueueDepth:  2,
		RequestTimeout: chaosRequestTimeout,
		Fault: fault.New(fault.Config{
			Seed:     seed,
			Latency:  20 * time.Millisecond,
			LatencyP: 0.4,
			ErrorP:   0.2,
		}),
	})
	if err != nil {
		return err
	}
	defer target.stop()
	selfBooted := addr == ""
	fmt.Fprintf(stderr, "cohereload: chaos fleets targeting %s\n", target.addr)

	rep := report{Tool: "cohereload", Target: target.addr + " (chaos)"}
	// Patient clients wait out the server's full budget and abandoning
	// clients hang up after a timeout far below the injected latency,
	// exercising cancellation; both retry 503s after honoring
	// Retry-After. Every request is a distinct key, so every admitted
	// one pays a real solve.
	for _, sc := range []struct {
		label         string
		clientTimeout time.Duration
		seed          int64
	}{
		{"chaos_patient", 0, seed},
		{"chaos_abandoning", 30 * time.Millisecond, seed + 1},
	} {
		var missSeq atomic.Uint64
		f := fleet{
			base: target.url, concurrency: conc, duration: dur, seed: sc.seed,
			timeout: sc.clientTimeout, retry503: true,
			body: func(*rand.Rand) (string, string) {
				return "/v1/bus", pointBody(scheme, missShd(missSeq.Add(1)), procs)
			},
		}
		s := drive(context.Background(), f).summary(sc.label, f, true)
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, status %v, %d retries, %d client timeouts, %d transport errors\n",
			s.Label, s.Requests, s.StatusCounts, s.Retries, s.ClientTimeouts, s.Errors)
	}

	var stats chaosStats
	if selfBooted {
		// An external target (a real daemon, or a gateway whose
		// /metrics page speaks swcc_gw_*) has no scrapeable overload
		// block; the clients' own status tallies are the verdict then.
		var err error
		stats, err = scrapeChaosStats(target.url)
		if err != nil {
			return err
		}
		rep.Chaos = &stats
	}

	if err := printReport(stdout, rep); err != nil {
		return err
	}

	client500s, transportErrs := 0, 0
	for _, s := range rep.Scenarios {
		client500s += s.StatusCounts["500"]
		transportErrs += s.Errors
	}
	if stats.ServerError500s > 0 || client500s > 0 {
		return fmt.Errorf("chaos: daemon answered 500 under injected faults (server counted %d, clients saw %d) — overload must stay 503/504/499",
			stats.ServerError500s, client500s)
	}
	if transportErrs > 0 {
		return fmt.Errorf("chaos: %d requests failed in transport without reaching their client timeout — overload must answer 503/504 or time out cleanly",
			transportErrs)
	}
	if !selfBooted {
		fmt.Fprintf(stderr, "cohereload: chaos ok against %s: 0 client-visible 500s, 0 transport errors\n", target.addr)
		return nil
	}
	if stats.Sheds == 0 {
		return fmt.Errorf("chaos: admission control never shed; the drill did not reach overload (raise -c or -d)")
	}
	fmt.Fprintf(stderr, "cohereload: chaos ok: %d sheds, %d cancels, %d injected errors, 0 server 500s\n",
		stats.Sheds, stats.Cancels, stats.InjectedErrors)
	return nil
}

// scrapeChaosStats reads the daemon's own overload accounting off
// /metrics — the drill's verdict comes from the server, not from what
// the clients happened to observe. It fails closed: a page missing any
// series the verdict reads is an error, never a zero.
func scrapeChaosStats(base string) (chaosStats, error) {
	data, err := get(newClient(10*time.Second), base+"/metrics")
	if err != nil {
		return chaosStats{}, fmt.Errorf("chaos: scraping /metrics: %w", err)
	}
	text := string(data)
	var missing []string
	counter := func(name string) int {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(text)
		if m == nil {
			missing = append(missing, name)
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	stats := chaosStats{
		Sheds:           counter("swcc_http_sheds_total"),
		Cancels:         counter("swcc_http_cancels_total"),
		InjectedErrors:  counter(`swcc_fault_injections_total{kind="error"}`),
		InjectedLatency: counter(`swcc_fault_injections_total{kind="latency"}`),
	}
	// A 500 is any request series with code="500" among its labels, in
	// whatever order they render.
	reqs := regexp.MustCompile(`(?m)^swcc_http_requests_total\{([^}]*)\} (\d+)$`).FindAllStringSubmatch(text, -1)
	if len(reqs) == 0 {
		missing = append(missing, "swcc_http_requests_total")
	}
	for _, m := range reqs {
		if slices.Contains(strings.Split(m[1], ","), `code="500"`) {
			n, _ := strconv.Atoi(m[2])
			stats.ServerError500s += n
		}
	}
	if len(missing) > 0 {
		return chaosStats{}, fmt.Errorf("chaos: %s/metrics lacks %s; the verdict cannot be read", base, strings.Join(missing, ", "))
	}
	return stats, nil
}
