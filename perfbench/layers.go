package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"swcc/internal/core"
	"swcc/internal/measure"
	"swcc/internal/netsim"
	"swcc/internal/queueing"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// perLayer lists every per-layer metric in report order. A traced run
// reports all of them; a layer its workload never enters reads 0 (the
// direct timings of a layer run only on the workload that loads it).
var perLayer = []struct{ name, unit string }{
	{"trace_overhead", "ratio"},
	{"gw.self_ms_p50", "ms"}, {"gw.self_ms_p99", "ms"},
	{"gw.sends_per_request", "ratio"}, {"gw.backend_hit_ratio", "ratio"},
	{"gw.respills", "count"}, {"gw.retries", "count"}, {"gw.key_fallbacks", "count"},
	{"serve.handler_ms_p50", "ms"}, {"serve.handler_ms_p99", "ms"},
	{"serve.stage.validate_us", "us"}, {"serve.stage.cache_lookup_us", "us"},
	{"serve.stage.singleflight_wait_us", "us"}, {"serve.stage.solve_us", "us"},
	{"serve.unstaged_us", "us"}, {"serve.sheds", "count"}, {"serve.cancels", "count"},
	{"transport.ms_p50", "ms"}, {"client.ms_p99", "ms"},
	{"sweep.hit_ratio", "ratio"}, {"sweep.full_solves_per_point", "ratio"},
	{"sweep.extends_per_point", "ratio"},
	{"sweep.evictions_per_point", "ratio"}, {"sweep.dedups", "count"},
	{"sweep.cache_entries", "count"}, {"sweep.hit_ns", "ns"}, {"sweep.cold_batch_us_per_point", "us"},
	{"kernel.demand_ns", "ns"}, {"kernel.mva_ns_per_customer", "ns"}, {"kernel.prio_mva_ns_per_customer", "ns"},
	{"tracegen.refs_per_s", "1/s"},
	{"sim.refs_per_s.base", "1/s"}, {"sim.refs_per_s.dragon", "1/s"}, {"sim.refs_per_s.nocache", "1/s"},
	{"sim.refs_per_s.swflush", "1/s"}, {"sim.refs_per_s.winv", "1/s"},
	{"measure.refs_per_s", "1/s"},
	{"netsim.circuit_cycles_per_s", "1/s"}, {"netsim.packet_cycles_per_s", "1/s"},
	{"experiments.fig1_s", "s"}, {"experiments.fig2_s", "s"}, {"experiments.fig3_s", "s"},
	{"experiments.table7_s", "s"}, {"experiments.blocksize_s", "s"}, {"experiments.patel_s", "s"},
	{"experiments.packetsim_s", "s"}, {"experiments.fig10sim_s", "s"}, {"experiments.scenarios_s", "s"},
	{"experiments.model_s", "s"}, {"experiments.parallel_efficiency", "ratio"},
	{"split.gw_self_share", "ratio"}, {"split.kernel_share_of_backend", "ratio"},
	{"split.sim_share_of_artifacts", "ratio"},
}

// simArtifacts are the registered experiments backed by trace
// generation and simulation; every other experiment is model-only.
var simArtifacts = []string{"fig1", "fig2", "fig3", "table7", "blocksize", "patel", "packetsim", "fig10sim", "scenarios"}

// layerValue is one per-layer number and its sample count.
type layerValue struct {
	v       float64
	samples int
}

// layerMetrics collects a traced run's per-layer numbers by name.
type layerMetrics map[string]layerValue

func (lm layerMetrics) set(name string, v float64, samples int) { lm[name] = layerValue{v, samples} }

// report adds every per-layer metric to res, zero where unmeasured.
func (lm layerMetrics) report(res *result) {
	for _, m := range perLayer {
		v := lm[m.name]
		res.add(m.name, v.v, m.unit, v.samples)
	}
}

func (w *window) rate() float64 { return float64(w.requests) / w.elapsed }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- spans ---

// requestSpans are the spans of one request ID.
type requestSpans struct {
	client, gw *span
	serves     []span
}

func groupSpans(spans []span) map[string]*requestSpans {
	by := map[string]*requestSpans{}
	for i := range spans {
		s := &spans[i]
		r := by[s.ID]
		if r == nil {
			r = &requestSpans{}
			by[s.ID] = r
		}
		switch s.Name {
		case "client":
			r.client = s
		case "gw":
			r.gw = s
		case "serve":
			r.serves = append(r.serves, *s)
		}
	}
	return by
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// covered is how much of parent's interval the children cover (their
// union, clipped to the parent).
func covered(parent span, children []span) float64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total) / 1e9
}

// fromSpans derives the self times: the gateway's span minus the part
// its backend spans cover, each backend handler span, and the transport
// time (client span minus the outermost handler span). It also keeps
// the client-observed p99, which is too host-sensitive to bound as an
// end-to-end metric but is what the layer tails add up to.
func (lm layerMetrics) fromSpans(spans []span) {
	var gwSelf, handler, transport, client []float64
	var gwSelfSum, clientSum float64
	for _, r := range groupSpans(spans) {
		if r.client == nil {
			continue
		}
		clientSum += r.client.dur()
		client = append(client, r.client.dur())
		for _, s := range r.serves {
			handler = append(handler, s.dur())
		}
		outer := 0.0
		switch {
		case r.gw != nil:
			self := r.gw.dur() - covered(*r.gw, r.serves)
			gwSelf = append(gwSelf, self)
			gwSelfSum += self
			outer = r.gw.dur()
		case len(r.serves) == 1:
			outer = r.serves[0].dur()
		default:
			continue
		}
		transport = append(transport, r.client.dur()-outer)
	}
	for _, xs := range [][]float64{gwSelf, handler, transport, client} {
		sort.Float64s(xs)
	}
	if len(gwSelf) > 0 {
		lm.set("gw.self_ms_p50", quantile(gwSelf, 0.5)*1000, len(gwSelf))
		lm.set("gw.self_ms_p99", quantile(gwSelf, 0.99)*1000, len(gwSelf))
		lm.set("split.gw_self_share", ratio(gwSelfSum, clientSum), len(gwSelf))
	}
	lm.set("serve.handler_ms_p50", quantile(handler, 0.5)*1000, len(handler))
	lm.set("serve.handler_ms_p99", quantile(handler, 0.99)*1000, len(handler))
	lm.set("transport.ms_p50", quantile(transport, 0.5)*1000, len(transport))
	lm.set("client.ms_p99", quantile(client, 0.99)*1000, len(client))
}

// --- counters ---

// layerSnap is the program's own counters at one instant: each
// backend's Evaluator.Stats() and /metrics page, and the gateway's
// /metrics page (nil without a gateway).
type layerSnap struct {
	stats   []sweep.Stats
	backend []map[string]float64
	gw      map[string]float64
}

func snapshotLayers(client *http.Client, backends []*backend, g *gateway) (layerSnap, error) {
	var s layerSnap
	for _, b := range backends {
		s.stats = append(s.stats, b.srv.Evaluator().Stats())
		m, err := scrape(client, b.url)
		if err != nil {
			return s, err
		}
		s.backend = append(s.backend, m)
	}
	if g != nil {
		m, err := scrape(client, g.url)
		if err != nil {
			return s, err
		}
		s.gw = m
	}
	return s, nil
}

// sum adds one counter over the fleet.
func (s layerSnap) sum(f func(sweep.Stats) uint64) float64 {
	var t uint64
	for _, st := range s.stats {
		t += f(st)
	}
	return float64(t)
}

func (s layerSnap) series(name string) float64 {
	var t float64
	for _, m := range s.backend {
		t += m[name]
	}
	return t
}

const stageSeries = `swcc_stage_duration_seconds_sum{stage="%s"}`

// fromDeltas derives the counter-based metrics over the traced window:
// serve stage means per backend request, sweep cache outcomes per model
// point, and the gateway's send and failure counters.
func (lm layerMetrics) fromDeltas(before, after layerSnap, spans []span, win *window) {
	d := func(f func(sweep.Stats) uint64) float64 { return after.sum(f) - before.sum(f) }
	ds := func(name string) float64 { return after.series(name) - before.series(name) }

	var handlerSum float64
	var handlerN int
	for _, s := range spans {
		if s.Name == "serve" {
			handlerSum += s.dur()
			handlerN++
		}
	}
	n := float64(handlerN)
	var staged float64
	for _, st := range []struct{ label, name string }{
		{"validate", "serve.stage.validate_us"},
		{sweep.StageCacheLookup, "serve.stage.cache_lookup_us"},
		{sweep.StageDedupWait, "serve.stage.singleflight_wait_us"},
		{sweep.StageSolve, "serve.stage.solve_us"},
	} {
		v := ds(fmt.Sprintf(stageSeries, st.label))
		staged += v
		lm.set(st.name, ratio(v, n)*1e6, handlerN)
	}
	lm.set("serve.unstaged_us", ratio(handlerSum-staged, n)*1e6, handlerN)
	lm.set("split.kernel_share_of_backend", ratio(ds(fmt.Sprintf(stageSeries, sweep.StageSolve)), handlerSum), handlerN)
	lm.set("serve.sheds", ds("swcc_http_sheds_total"), 1)
	lm.set("serve.cancels", ds("swcc_http_cancels_total"), 1)

	mvaHits := d(func(s sweep.Stats) uint64 { return s.MVAHits })
	mvaSolves := d(func(s sweep.Stats) uint64 { return s.MVASolves })
	demandHits := d(func(s sweep.Stats) uint64 { return s.DemandHits })
	demandSolves := d(func(s sweep.Stats) uint64 { return s.DemandSolves })
	extends := d(func(s sweep.Stats) uint64 { return s.CurveExtends })
	full := d(func(s sweep.Stats) uint64 { return s.CurveFullSolves })
	evictions := d(func(s sweep.Stats) uint64 { return s.CurveEvictions + s.DemandEvictions })
	points := float64(win.points)
	lookups := int(mvaHits + mvaSolves)
	lm.set("sweep.hit_ratio", ratio(mvaHits, mvaHits+mvaSolves), lookups)
	lm.set("sweep.full_solves_per_point", ratio(full, points), win.points)
	lm.set("sweep.extends_per_point", ratio(extends, points), win.points)
	lm.set("sweep.evictions_per_point", ratio(evictions, points), win.points)
	lm.set("sweep.dedups", d(func(s sweep.Stats) uint64 { return s.DemandDedups + s.MVADedups }), 1)
	var entries int
	for _, st := range after.stats {
		entries += st.DemandEntries + st.CurveEntries
	}
	lm.set("sweep.cache_entries", float64(entries), len(after.stats))

	if after.gw != nil {
		dg := func(prefix string) float64 { return sumPrefix(after.gw, prefix) - sumPrefix(before.gw, prefix) }
		lm.set("gw.sends_per_request", ratio(dg("swcc_gw_backend_sends_total"), float64(win.requests)), win.requests)
		lm.set("gw.backend_hit_ratio", ratio(mvaHits+demandHits, mvaHits+demandHits+mvaSolves+demandSolves), lookups)
		lm.set("gw.respills", dg("swcc_gw_respills_total"), 1)
		lm.set("gw.retries", dg("swcc_gw_retries_total"), 1)
		lm.set("gw.key_fallbacks", dg("swcc_gw_key_fallbacks_total"), 1)
	}
}

// traceServing is a serving workload's traced run: half the window
// untraced, half traced with the layers' counters taken around it, then
// the self times, the counter deltas and the direct kernel pass.
func traceServing(o options, res *result, rec *recorder, client *http.Client, backends []*backend, g *gateway, untracedDo, tracedDo doFunc) error {
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	untraced := loadWindow(half, nil, false, untracedDo)
	before, err := snapshotLayers(client, backends, g)
	if err != nil {
		return err
	}
	rec.setOn(true)
	traced := loadWindow(half, rec, true, tracedDo)
	rec.setOn(false)
	after, err := snapshotLayers(client, backends, g)
	if err != nil {
		return err
	}
	res.Timed = phase{Attempted: untraced.requests + traced.requests, Failed: untraced.failed + traced.failed}
	lm := layerMetrics{}
	lm.set("trace_overhead", traced.rate()/untraced.rate(), 2)
	lm.fromSpans(rec.spans)
	lm.fromDeltas(before, after, rec.spans, traced)
	if err := lm.kernelPass(o.seed); err != nil {
		return err
	}
	if err := writeSpans(o, rec); err != nil {
		return err
	}
	lm.report(res)
	return nil
}

// writeSpans writes the traced run's spans under o.outDir.
func writeSpans(o options, rec *recorder) error {
	dir := filepath.Join(o.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONLines(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- direct layer timings ---

// timeIt runs fn reps times and returns the median seconds per call.
func timeIt(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// kernelPass times the kernel (core + queueing) and the memo cache
// directly, outside any HTTP path.
func (lm layerMetrics) kernelPass(seed uint64) error {
	const reps = 5
	mid := func(name string) (core.Scheme, core.Params, error) {
		return (query{Scheme: name, Knob: 0.5, LS: 0.3, MsDat: 0.014, Shd: 0.25, WR: 0.25, APL: 7.7}).resolve()
	}
	var schemes []core.Scheme
	var params []core.Params
	for _, name := range busSchemes {
		s, p, err := mid(name)
		if err != nil {
			return err
		}
		schemes, params = append(schemes, s), append(params, p)
	}
	costs := core.BusCosts()
	const demandCalls = 2000
	sec := timeIt(reps, func() {
		for i := 0; i < demandCalls; i++ {
			for j, s := range schemes {
				core.ComputeDemand(s, params[j], costs)
			}
		}
	})
	lm.set("kernel.demand_ns", sec/float64(demandCalls*len(schemes))*1e9, reps)

	demand := func(name string) (core.Demand, error) {
		s, p, err := mid(name)
		if err != nil {
			return core.Demand{}, err
		}
		return core.ComputeDemand(s, p, costs)
	}
	d, err := demand("swflush")
	if err != nil {
		return err
	}
	const customers, solves = 512, 200
	dst := make([]queueing.SingleServerResult, 0, customers)
	sec = timeIt(reps, func() {
		for i := 0; i < solves; i++ {
			dst, _ = queueing.ExtendSingleServerMVA(d.Think(), d.Interconnect, nil, customers, dst[:0])
		}
	})
	lm.set("kernel.mva_ns_per_customer", sec/(customers*solves)*1e9, reps)

	dp, err := demand("swflush-prio")
	if err != nil {
		return err
	}
	hi, lo := dp.PrioritySplit()
	sec = timeIt(reps, func() {
		for i := 0; i < solves; i++ {
			dst, _ = queueing.PrioritySingleServerMVA(dp.Think(), hi, lo, customers, dst[:0])
		}
	})
	lm.set("kernel.prio_mva_ns_per_customer", sec/(customers*solves)*1e9, reps)

	// Warm hit path: a private evaluator answering cached points.
	ev := sweep.NewEvaluator()
	warm := make([]sweep.Point, 64)
	for i := range warm {
		q := walkQuery(seed, uint64(i))
		s, p, err := q.resolve()
		if err != nil {
			return err
		}
		warm[i] = sweep.Point{Scheme: s, Params: p, NProc: q.Procs}
		if _, err := ev.BusPointCtx(context.Background(), s, p, costs, q.Procs); err != nil {
			return err
		}
	}
	const hits = 20000
	sec = timeIt(reps, func() {
		for i := 0; i < hits; i++ {
			pt := warm[i%len(warm)]
			ev.BusPointCtx(context.Background(), pt.Scheme, pt.Params, costs, pt.NProc)
		}
	})
	lm.set("sweep.hit_ns", sec/hits*1e9, reps)

	// Cold batches: cold_sweep's batches through the engine, no HTTP.
	eng := &sweep.Engine{Cache: sweep.NewEvaluatorCap(coldCacheCap)}
	cs := newColdStream(seed, 3)
	const batches = 20
	var pts [][]sweep.Point
	for b := 0; b < reps*batches; b++ {
		qs := cs.batch(coldBatch)
		bp := make([]sweep.Point, len(qs))
		for i, q := range qs {
			s, p, err := q.resolve()
			if err != nil {
				return err
			}
			bp[i] = sweep.Point{Scheme: s, Params: p, NProc: q.Procs}
		}
		pts = append(pts, bp)
	}
	next := 0
	sec = timeIt(reps, func() {
		for b := 0; b < batches; b++ {
			eng.EvaluateBus(pts[next], costs)
			next++
		}
	})
	lm.set("sweep.cold_batch_us_per_point", sec/(batches*coldBatch)*1e6, reps)
	return nil
}

// simPass times the simulation stack directly on the presets and
// configurations the paper artifacts use.
func (lm layerMetrics) simPass() error {
	const reps = 3
	var t *trace.Trace
	var genRefs int
	var genSec float64
	for _, name := range []string{"pops", "thor", "pero"} {
		cfg, err := tracegen.Preset(name)
		if err != nil {
			return err
		}
		var n int
		genSec += timeIt(reps, func() {
			g, err := tracegen.Generate(cfg)
			if err == nil {
				n = g.Len()
				if t == nil {
					t = g // pops, the first preset, drives the simulator timings
				}
			}
		})
		genRefs += n
	}
	if t == nil || genRefs == 0 {
		return fmt.Errorf("tracegen produced no trace")
	}
	lm.set("tracegen.refs_per_s", float64(genRefs)/genSec, reps*3)

	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	for _, p := range []struct {
		name  string
		proto sim.Protocol
	}{{"base", sim.ProtoBase}, {"dragon", sim.ProtoDragon}, {"nocache", sim.ProtoNoCache},
		{"swflush", sim.ProtoSoftwareFlush}, {"winv", sim.ProtoWriteInvalidate}} {
		var runErr error
		sec := timeIt(reps, func() {
			_, runErr = sim.Run(sim.Config{NCPU: t.NCPU, Cache: cache, Protocol: p.proto, WarmupRefs: t.Len() / 2}, t)
		})
		if runErr != nil {
			return runErr
		}
		lm.set("sim.refs_per_s."+p.name, float64(t.Len())/sec, reps)
	}
	var mErr error
	sec := timeIt(reps, func() { _, mErr = measure.Extract(t, cache, 0.5) })
	if mErr != nil {
		return mErr
	}
	lm.set("measure.refs_per_s", float64(t.Len())/sec, reps)

	const cycles = 250_000
	var nErr error
	sec = timeIt(reps, func() {
		_, nErr = netsim.Run(netsim.Config{Stages: 6, Think: 60, Hold: 16, Cycles: cycles, WarmupCycles: cycles / 10, Seed: 0xA5})
	})
	if nErr != nil {
		return nErr
	}
	lm.set("netsim.circuit_cycles_per_s", cycles/sec, reps)
	sec = timeIt(reps, func() {
		_, nErr = netsim.RunBuffered(netsim.BufferedConfig{Stages: 6, Think: 60, Packets: 4, Cycles: cycles, WarmupCycles: cycles / 10, Seed: 0xBEEF})
	})
	if nErr != nil {
		return nErr
	}
	lm.set("netsim.packet_cycles_per_s", cycles/sec, reps)
	return nil
}
