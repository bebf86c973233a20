package main

// The -gw drill: an in-process rehearsal of the cache-affinity tier.
// It boots real cohered backends (serve.Server over loopback HTTP) and
// a real gateway (internal/gw), then measures exactly the claim the
// gateway exists for — that routing by canonical cache key keeps the
// fleet's memo caches hot where round-robin churns them — and verifies
// the failure-path promises: a killed backend never surfaces as a
// client 500, hedged requests cut an injected latency tail
// without amplifying backend load past the hedge band, and a live
// backend-set reload adds and drains backends mid-load with zero
// client-visible 5xx. `make gw-smoke` runs this and fails the build
// when any of those regress.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"swcc/internal/fault"
	"swcc/internal/gw"
	"swcc/internal/serve"
	"swcc/internal/sweep"
)

// Drill geometry. The warm pool deliberately exceeds what one backend's
// capped cache can hold but not what the two-backend fleet holds in
// aggregate: under affinity each backend's ~half-share of the pool fits
// its cap and stays resident, while under round-robin every backend
// eventually sees every key and its CLOCK churns. The cap sits between
// half the pool (plus rendezvous skew) and the pool itself — that
// window is where the policies separate.
//
// The machine size sets what a miss costs. A cached curve is one float64
// per population, so at 1024 processors a miss allocated 8 KB and a
// backend's whole working set was ~2.5 MB; the two arms then differed
// by little more than the collector's schedule, and their p99 ratio
// sat near 1.0, inside the noise of the 1.05 band. At 4096 a miss is a
// 4096-step ramp and a 32 KB curve, and the arms separate again.
const (
	gwWarmPool = 512  // distinct workloads in the bench pool
	gwCacheCap = 310  // per-backend curve-cache cap
	gwProcs    = 4096 // machine size per query: misses pay a real MVA ramp
)

// gwHitRatioGate and gwP99Band are the drill's self-gate: affinity must
// beat round-robin on aggregate backend hit ratio by at least the gate
// factor, with client p99 no worse than the band allows. The p99 side
// gates on the median over gwWindows paired windows: one window's p99
// ratio spreads 0.6-1.2x, wider than the band, so a single window
// fails a healthy fleet in about 3 runs of 20.
const (
	gwHitRatioGate = 1.5
	gwP99Band      = 1.05
	gwWindows      = 9
)

// Hedging-drill geometry. Each backend carries a seeded fault injector
// whose only fault is latency: gwTailP of requests sleep gwTailLatency,
// a tail far past the fixed gwHedgeDelay. With tails independent across
// backends, an unhedged arm's p99 sits on the injected sleep (tailP >
// 1%) while the hedged arm's p99 collapses to roughly the hedge delay
// (both lanes slow only tailP² of the time, well under 1%). The load
// band bounds the cost: sends may exceed client requests only by the
// hedge rate, which tracks tailP and must stay under gwHedgeLoadBand.
const (
	gwHedgePool     = 64
	gwTailLatency   = 120 * time.Millisecond
	gwTailP         = 0.06
	gwHedgeDelay    = 25 * time.Millisecond
	gwHedgeLoadBand = 1.10
)

// startGwTier boots a gateway with the given config (Backends filled
// from the backend list) and returns the gateway itself — the reload
// drill drives Gateway.Reload on it — plus its base URL and a stop
// func. The prober runs fast (failover inside a sub-second drill
// window) and the first probe round has settled before this returns.
func startGwTier(cfg gw.Config, backends []*backend) (*gw.Gateway, string, func(), error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	cfg.Backends = urls
	cfg.CheckInterval = 100 * time.Millisecond
	cfg.CheckTimeout = time.Second
	cfg.FailThreshold = 1
	// Warn level: the gateway's per-request access log would otherwise
	// pay JSON formatting on every drill request even into io.Discard.
	cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	g, err := gw.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go g.Run(ctx)
	g.CheckNow(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: g.Handler()}
	go hs.Serve(ln)
	stop := func() {
		cancel()
		hs.Close()
	}
	return g, "http://" + ln.Addr().String(), stop, nil
}

// scrapeStats reads one backend's evaluator counters off its /healthz.
func scrapeStats(client *http.Client, baseURL string) (sweep.Stats, error) {
	data, err := get(client, baseURL+"/healthz")
	if err != nil {
		return sweep.Stats{}, err
	}
	var h struct {
		Cache sweep.Stats `json:"cache"`
	}
	err = json.Unmarshal(data, &h)
	return h.Cache, err
}

// fleetHitRatio aggregates the fleet's curve-cache hit ratio over the
// window between two stats snapshots: summed hit deltas over summed
// lookup deltas, each backend's numbers from its own accounting.
func fleetHitRatio(before, after []sweep.Stats) float64 {
	var hits, lookups uint64
	for i := range after {
		h := after[i].MVAHits - before[i].MVAHits
		s := after[i].MVASolves - before[i].MVASolves
		hits += h
		lookups += h + s
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// gwWarmPoints is the drill fleets' body: a single point on a
// gwProcs-sized machine, drawn uniformly from a pool of warm workloads.
// A cache miss pays the full incremental-MVA ramp while a hit is a
// lookup — the cost asymmetry the hit ratio turns into latency.
func gwWarmPoints(pool int) func(*rand.Rand) (string, string) {
	return func(rng *rand.Rand) (string, string) {
		return "/v1/bus", pointBody(defaultScheme, warmShd(rng.Intn(pool), pool), gwProcs)
	}
}

// gwArm is one policy's fleet in the affinity-vs-round-robin
// comparison, and what its timed windows recorded.
type gwArm struct {
	label     string
	fleet     fleet
	backends  []*backend
	before    []sweep.Stats
	total     result
	windowP99 []float64 // per timed window, ms
}

// scrape reads every backend's evaluator counters.
func (a *gwArm) scrape(client *http.Client) ([]sweep.Stats, error) {
	st := make([]sweep.Stats, len(a.backends))
	for i, b := range a.backends {
		var err error
		if st[i], err = scrapeStats(client, b.url); err != nil {
			return nil, fmt.Errorf("%s: scraping %s: %w", a.label, b.url, err)
		}
	}
	return st, nil
}

// gwBenchArms runs the affinity and round-robin arms of the comparison.
// Both fleets boot and warm up before either is timed, so neither
// window pays start-up latency (first connections, heap growth, cache
// churn) the other is spared. Each arm then runs gwWindows timed
// windows of dur, one arm alone at a time, so each pays for its own
// garbage — round-robin's extra misses allocate curves, and the GC
// work that costs is part of what the comparison measures. Window w of both arms
// draws the same key schedule, and the arm that goes first alternates,
// so each pair of windows sees the same host conditions.
// Returns the two scenario summaries (BackendHitRatio and WindowP99
// populated) for the gate.
func gwBenchArms(conc int, dur time.Duration, seed int64) (affinity, rr summary, err error) {
	client := newClient(30 * time.Second)
	var arms [2]*gwArm
	for i, p := range []struct{ policy, label string }{
		{gw.PolicyAffinity, "gw_affinity"}, {gw.PolicyRoundRobin, "gw_roundrobin"},
	} {
		// Fresh capped backends and gateway, the whole pool primed once
		// through the gateway, then the unmeasured warm-up at full
		// concurrency.
		a := &gwArm{label: p.label}
		for j := 0; j < 2; j++ {
			b, err := startBackend(serve.Config{CacheCap: gwCacheCap})
			if err != nil {
				return summary{}, summary{}, err
			}
			defer b.stop()
			a.backends = append(a.backends, b)
		}
		_, base, stopGw, err := startGwTier(gw.Config{Policy: p.policy}, a.backends)
		if err != nil {
			return summary{}, summary{}, err
		}
		defer stopGw()
		a.fleet = fleet{base: base, concurrency: conc, duration: dur, timeout: 30 * time.Second, body: gwWarmPoints(gwWarmPool)}
		for k := 0; k < gwWarmPool; k++ {
			code, body, _, err := post(context.Background(), client, base+"/v1/bus", pointBody(defaultScheme, warmShd(k, gwWarmPool), gwProcs))
			if err != nil || code != http.StatusOK {
				return summary{}, summary{}, fmt.Errorf("%s: priming pool: status %d err %v body %s", p.label, code, err, body)
			}
		}
		warm := a.fleet
		warm.duration, warm.seed = dur/2, seed+int64(i)+gwWarmupSeed
		if r := drive(context.Background(), warm); r.requests > len(r.latencies) {
			return summary{}, summary{}, fmt.Errorf("%s: warm-up: %d errors", p.label, r.requests-len(r.latencies))
		}
		arms[i] = a
	}
	for _, a := range arms {
		if a.before, err = a.scrape(client); err != nil {
			return summary{}, summary{}, err
		}
	}
	for w := 0; w < gwWindows; w++ {
		for k := range arms {
			a := arms[(w+k)%len(arms)]
			f := a.fleet
			f.seed = seed + int64(w)
			r := drive(context.Background(), f)
			a.windowP99 = append(a.windowP99, summarize(r.latencies).P99)
			a.total.add(r)
		}
	}
	var out [2]summary
	for i, a := range arms {
		after, err := a.scrape(client)
		if err != nil {
			return summary{}, summary{}, err
		}
		f := a.fleet
		f.duration = gwWindows * dur
		out[i] = a.total.summary(a.label, f, false)
		out[i].HitRatio = 1 // the schedule draws only warm-pool keys
		out[i].BackendHitRatio = fleetHitRatio(a.before, after)
		out[i].WindowP99 = a.windowP99
	}
	return out[0], out[1], nil
}

// gwWarmupSeed offsets the warm-up's key draws from the timed window's.
const gwWarmupSeed = 1 << 32

// gwFailover drives load through an affinity gateway and hard-kills one
// backend a third of the way in. The surviving window must stay clean:
// the gateway retries transport failures onto the survivor, so clients
// may see retried latency but never a 500 or a gateway-minted 502.
func gwFailover(conc int, dur time.Duration, seed int64) (summary, error) {
	var backends []*backend
	for i := 0; i < 2; i++ {
		b, err := startBackend(serve.Config{})
		if err != nil {
			return summary{}, err
		}
		defer b.stop()
		backends = append(backends, b)
	}
	_, base, stopGw, err := startGwTier(gw.Config{Policy: gw.PolicyAffinity}, backends)
	if err != nil {
		return summary{}, err
	}
	defer stopGw()

	kill := time.AfterFunc(dur/3, backends[0].stop)
	defer kill.Stop()
	f := fleet{base: base, concurrency: conc, duration: dur, seed: seed, timeout: 10 * time.Second, body: gwWarmPoints(64)}
	s := drive(context.Background(), f).summary("gw_failover", f, true)
	status := s.StatusCounts
	if status["500"] > 0 || status["502"] > 0 {
		return s, fmt.Errorf("gw_failover: clients saw %d 500s and %d 502s after a backend kill — failover must absorb it",
			status["500"], status["502"])
	}
	if status["200"] == 0 {
		return s, fmt.Errorf("gw_failover: no request ever succeeded")
	}
	return s, nil
}

// gwTierView is the slice of the gateway's own /healthz the drills
// scrape: reload count plus per-backend send counters.
type gwTierView struct {
	Reloads  int64
	Sends    int64
	Backends []string
}

// scrapeGwTier reads the gateway's /healthz aggregation.
func scrapeGwTier(client *http.Client, base string) (gwTierView, error) {
	data, err := get(client, base+"/healthz")
	if err != nil {
		return gwTierView{}, err
	}
	var h struct {
		Reloads  int64 `json:"reloads"`
		Backends []struct {
			URL   string `json:"url"`
			Sends int64  `json:"sends"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return gwTierView{}, err
	}
	v := gwTierView{Reloads: h.Reloads}
	for _, b := range h.Backends {
		v.Sends += b.Sends
		v.Backends = append(v.Backends, b.URL)
	}
	return v, nil
}

// gwHedgeArm runs one arm of the hedging comparison: two tail-injected
// backends, both pre-warmed on the whole pool directly (so the window
// measures the injected tail, not solve time), then a timed all-warm
// window through the gateway with the given hedge delay (0: hedging
// off). Both arms run the same seed, so the injectors draw the same
// tail schedule and the only difference is whether the gateway races a
// second backend past it.
// BackendSendRatio comes from the gateway's own send counters over the
// window — the backend-load amplification the hedge band gates.
func gwHedgeArm(label string, hedgeDelay time.Duration, conc int, dur time.Duration, seed int64) (summary, error) {
	var backends []*backend
	for i := 0; i < 2; i++ {
		b, err := startBackend(serve.Config{Fault: fault.New(fault.Config{
			Seed:     seed + int64(i),
			Latency:  gwTailLatency,
			LatencyP: gwTailP,
		})})
		if err != nil {
			return summary{}, err
		}
		defer b.stop()
		backends = append(backends, b)
	}
	_, base, stopGw, err := startGwTier(gw.Config{
		Policy:     gw.PolicyAffinity,
		HedgeDelay: hedgeDelay,
	}, backends)
	if err != nil {
		return summary{}, err
	}
	defer stopGw()

	// Warm every backend on every key directly: a hedge must find the
	// second-ranked backend as warm as the owner, exactly the deployed
	// steady state the response tail rides on.
	client := newClient(30 * time.Second)
	for i := 0; i < gwHedgePool; i++ {
		for _, b := range backends {
			code, body, _, err := post(context.Background(), client, b.url+"/v1/bus", pointBody(defaultScheme, warmShd(i, gwHedgePool), gwProcs))
			if err != nil || code != http.StatusOK {
				return summary{}, fmt.Errorf("%s: warming %s: status %d err %v body %s", label, b.url, code, err, body)
			}
		}
	}
	before, err := scrapeGwTier(client, base)
	if err != nil {
		return summary{}, fmt.Errorf("%s: scraping gateway: %w", label, err)
	}
	f := fleet{base: base, concurrency: conc, duration: dur, seed: seed, timeout: 30 * time.Second, body: gwWarmPoints(gwHedgePool)}
	r := drive(context.Background(), f)
	after, err := scrapeGwTier(client, base)
	if err != nil {
		return summary{}, fmt.Errorf("%s: scraping gateway: %w", label, err)
	}
	s := r.summary(label, f, false)
	s.HitRatio = 1
	if r.requests > 0 {
		s.BackendSendRatio = float64(after.Sends-before.Sends) / float64(r.requests)
	}
	return s, nil
}

// gwReload drives load through an affinity gateway while the backend
// set changes shape under it: a third backend joins a third of the way
// in, then the original first backend leaves at two thirds — the
// SIGHUP lifecycle, minus the signal. Both transitions must be
// invisible to clients: zero transport errors, zero 5xx, and the
// gateway's final /healthz must show exactly the post-reload fleet.
func gwReload(conc int, dur time.Duration, seed int64) (summary, error) {
	var backends []*backend
	for i := 0; i < 3; i++ {
		b, err := startBackend(serve.Config{})
		if err != nil {
			return summary{}, err
		}
		defer b.stop()
		backends = append(backends, b)
	}
	g, base, stopGw, err := startGwTier(gw.Config{Policy: gw.PolicyAffinity}, backends[:2])
	if err != nil {
		return summary{}, err
	}
	defer stopGw()

	reloadErr := make(chan error, 1)
	go func() {
		time.Sleep(dur / 3)
		if _, err := g.Reload([]string{backends[0].url, backends[1].url, backends[2].url}); err != nil {
			reloadErr <- fmt.Errorf("growing the set: %w", err)
			return
		}
		time.Sleep(dur / 3)
		if _, err := g.Reload([]string{backends[1].url, backends[2].url}); err != nil {
			reloadErr <- fmt.Errorf("shrinking the set: %w", err)
			return
		}
		reloadErr <- nil
	}()

	f := fleet{base: base, concurrency: conc, duration: dur, seed: seed, timeout: 10 * time.Second, body: gwWarmPoints(64)}
	s := drive(context.Background(), f).summary("gw_reload", f, true)
	if err := <-reloadErr; err != nil {
		return s, fmt.Errorf("gw_reload: %w", err)
	}
	if n := s.Errors + s.ClientTimeouts; n > 0 {
		return s, fmt.Errorf("gw_reload: %d transport errors while the backend set changed shape", n)
	}
	for code, n := range s.StatusCounts {
		if n > 0 && strings.HasPrefix(code, "5") {
			return s, fmt.Errorf("gw_reload: clients saw %d %ss during reloads — membership changes must be invisible", n, code)
		}
	}
	if s.StatusCounts["200"] == 0 {
		return s, fmt.Errorf("gw_reload: no request ever succeeded")
	}
	view, err := scrapeGwTier(newClient(10*time.Second), base)
	if err != nil {
		return s, fmt.Errorf("gw_reload: scraping gateway: %w", err)
	}
	if view.Reloads != 2 || len(view.Backends) != 2 {
		return s, fmt.Errorf("gw_reload: gateway shows %d reloads over %d backends, want 2 over 2", view.Reloads, len(view.Backends))
	}
	for _, u := range view.Backends {
		if u == backends[0].url {
			return s, fmt.Errorf("gw_reload: removed backend %s still in the routing set", u)
		}
	}
	return s, nil
}

// runGw runs the full gateway drill and writes the report. Any phase
// failing its gate fails the process, so `make gw-smoke` is a build
// gate, not a report generator.
func runGw(stdout, stderr io.Writer, conc int, dur time.Duration, seed int64) error {
	rep := report{Tool: "cohereload", Target: "in-process gateway fleet (gw)"}

	affinity, rr, err := gwBenchArms(conc, dur, seed)
	if err != nil {
		return err
	}
	rep.Scenarios = append(rep.Scenarios, affinity, rr)
	for _, s := range []summary{affinity, rr} {
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, %d errors, backend hit ratio %.3f, p99 %.3fms (windows %.3v ms)\n",
			s.Label, s.Requests, s.Errors, s.BackendHitRatio, s.Latency.P99, s.WindowP99)
	}
	if affinity.Errors > 0 || rr.Errors > 0 {
		return fmt.Errorf("gw bench: errors under healthy fleets (affinity %d, roundrobin %d)", affinity.Errors, rr.Errors)
	}
	if err := affinityGate(affinity, rr); err != nil {
		// The race detector's instrumentation perturbs latency tails far
		// past the band, so race builds (`go test -race`) report a p99
		// miss instead of failing; normal builds (`make gw-smoke`)
		// enforce it.
		if !errors.Is(err, errTailBand) || !raceEnabled {
			return err
		}
		fmt.Fprintf(stderr, "cohereload: %v — informational under the race detector\n", err)
	}

	// The hedging comparison runs both arms on the same seed: same tail
	// schedule, same key draws, hedging the only variable. The drill
	// gates the whole claim — a cut tail for bounded extra backend load.
	unhedged, err := gwHedgeArm("gw_unhedged", 0, conc, dur, seed+3)
	if err != nil {
		return err
	}
	hedged, err := gwHedgeArm("gw_hedged", gwHedgeDelay, conc, dur, seed+3)
	if err != nil {
		return err
	}
	rep.Scenarios = append(rep.Scenarios, unhedged, hedged)
	for _, s := range []summary{unhedged, hedged} {
		fmt.Fprintf(stderr, "cohereload: %s: %d requests, %d errors, p99 %.3fms, backend send ratio %.3f\n",
			s.Label, s.Requests, s.Errors, s.Latency.P99, s.BackendSendRatio)
	}
	if unhedged.Errors > 0 || hedged.Errors > 0 {
		return fmt.Errorf("gw hedge: errors under latency-only injection (unhedged %d, hedged %d)", unhedged.Errors, hedged.Errors)
	}
	if err := hedgeGate(unhedged, hedged); err != nil {
		return err
	}

	failover, err := gwFailover(conc, dur, seed+2)
	if len(failover.StatusCounts) > 0 || failover.Requests > 0 {
		rep.Scenarios = append(rep.Scenarios, failover)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cohereload: gw_failover: %d requests, status %v, %d transport errors, backend killed mid-load\n",
		failover.Requests, failover.StatusCounts, failover.Errors)

	reload, err := gwReload(conc, dur, seed+4)
	if reload.Requests > 0 {
		rep.Scenarios = append(rep.Scenarios, reload)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cohereload: gw_reload: %d requests, status %v, backend added then removed mid-load\n",
		reload.Requests, reload.StatusCounts)

	return printReport(stdout, rep)
}

// errTailBand marks an affinityGate failure on the p99 band alone.
var errTailBand = errors.New("gw bench: affinity p99 over round-robin's band")

// affinityGate is the drill's claim about affinity routing: its
// aggregate backend hit ratio is at least gwHitRatioGate times the
// round-robin control's, with client p99 within gwP99Band of it — the
// median, over paired windows, of affinity's window p99 over
// round-robin's. A p99 miss alone wraps errTailBand.
func affinityGate(affinity, rr summary) error {
	if rr.BackendHitRatio <= 0 {
		return errors.New("gw bench: round-robin arm recorded no lookups")
	}
	if gain := affinity.BackendHitRatio / rr.BackendHitRatio; gain < gwHitRatioGate {
		return fmt.Errorf("gw bench: affinity hit ratio %.3f is only %.2fx round-robin's %.3f (gate %.1fx)",
			affinity.BackendHitRatio, gain, rr.BackendHitRatio, gwHitRatioGate)
	}
	if len(affinity.WindowP99) == 0 || len(affinity.WindowP99) != len(rr.WindowP99) {
		return fmt.Errorf("gw bench: %d affinity windows vs %d round-robin windows", len(affinity.WindowP99), len(rr.WindowP99))
	}
	ratios := make([]float64, len(affinity.WindowP99))
	for i, p99 := range affinity.WindowP99 {
		ratios[i] = p99 / rr.WindowP99[i]
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med > gwP99Band {
		return fmt.Errorf("%w: median window p99 ratio %.3f (affinity %.3v ms, round-robin %.3v ms; band %.2fx)",
			errTailBand, med, affinity.WindowP99, rr.WindowP99, gwP99Band)
	}
	return nil
}

// hedgeGate is the drill's claim about hedging, on two arms run on the
// same seed: the unhedged arm's p99 reaches the injected tail, the
// hedged arm's p99 is lower, and its backend send ratio stays inside
// gwHedgeLoadBand.
func hedgeGate(unhedged, hedged summary) error {
	if unhedged.Latency.P99 < float64(gwTailLatency.Milliseconds()) {
		return fmt.Errorf("gw hedge: unhedged p99 %.3fms never reached the %.0fms injected tail — the drill measured nothing",
			unhedged.Latency.P99, float64(gwTailLatency.Milliseconds()))
	}
	if hedged.Latency.P99 >= unhedged.Latency.P99 {
		return fmt.Errorf("gw hedge: hedged p99 %.3fms did not cut the unhedged %.3fms tail",
			hedged.Latency.P99, unhedged.Latency.P99)
	}
	if hedged.BackendSendRatio > gwHedgeLoadBand {
		return fmt.Errorf("gw hedge: backend send ratio %.3f exceeds the %.2fx load band — hedging is over-firing",
			hedged.BackendSendRatio, gwHedgeLoadBand)
	}
	return nil
}
