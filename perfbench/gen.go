package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"swcc/internal/core"
)

// The request generators. Every body the program receives is a pure
// function of the benchmark seed (and, for per-worker streams, the
// worker index), so two runs with one seed send the same schedule.

// splitmix64 is the SplitMix64 mixer: it turns (seed, stream, index)
// into independent-looking 64-bit values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream; deterministic and allocation-free.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream+1))}
}

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return splitmix64(r.s) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// frac is the fractional part of x.
func frac(x float64) float64 { return x - math.Floor(x) }

// Irrational strides for the low-discrepancy walks: n*stride mod 1 never
// repeats for distinct n, so a counter maps to never-repeating values.
const (
	phi1 = 0.6180339887498949 // golden ratio conjugate
	phi2 = 0.4142135623730951 // sqrt(2) - 1
	phi3 = 0.7320508075688772 // sqrt(3) - 1
	phi4 = 0.2360679774997897 // sqrt(5) - 2
	phi5 = 0.6457513110645906 // sqrt(7) - 2
)

// busSchemes is every registered scheme the benchmark asks about,
// pinned here (not read from the registry) so the inputs do not change
// when a scheme is added. Hybrid and Hybrid-Update carry their knob.
var busSchemes = []string{
	"base", "dragon", "swflush", "nocache", "directory",
	"hybrid", "winv", "hybrid-update", "swflush-prio",
}

// query is one /v1/bus question: scheme, knob, workload, machine size.
type query struct {
	Scheme string
	Knob   float64 // lockfrac (hybrid) or updatefrac (hybrid-update); unused otherwise
	LS     float64
	MsDat  float64
	Shd    float64
	WR     float64
	APL    float64
	Procs  int
	Point  bool
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// knobField names the request field that carries q.Knob, or "".
func (q query) knobField() string {
	switch q.Scheme {
	case "hybrid":
		return "lockfrac"
	case "hybrid-update":
		return "updatefrac"
	}
	return ""
}

// paramsJSON is the workload object of the request body.
func (q query) paramsJSON() string {
	return `{"ls": ` + ftoa(q.LS) + `, "msdat": ` + ftoa(q.MsDat) + `, "shd": ` + ftoa(q.Shd) +
		`, "wr": ` + ftoa(q.WR) + `, "apl": ` + ftoa(q.APL) + `}`
}

// body renders q as a /v1/bus request (also one element of a /v1/sweep
// batch).
func (q query) body() string {
	var b strings.Builder
	b.WriteString(`{"scheme": "`)
	b.WriteString(q.Scheme)
	b.WriteString(`"`)
	if f := q.knobField(); f != "" {
		b.WriteString(`, "` + f + `": ` + ftoa(q.Knob))
	}
	b.WriteString(`, "params": ` + q.paramsJSON())
	b.WriteString(`, "procs": ` + strconv.Itoa(q.Procs))
	if q.Point {
		b.WriteString(`, "point": true`)
	}
	b.WriteString(`}`)
	return b.String()
}

// sweepBody renders a /v1/sweep batch.
func sweepBody(qs []query) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = q.body()
	}
	return `{"points": [` + strings.Join(parts, ", ") + `]}`
}

// resolve builds the scheme and workload the server will build from
// q's body, through the same public registry and parameter decoder.
func (q query) resolve() (core.Scheme, core.Params, error) {
	info, ok := core.SchemeInfoByName(q.Scheme)
	if !ok {
		return nil, core.Params{}, fmt.Errorf("unknown scheme %q", q.Scheme)
	}
	s := info.Scheme
	if info.Configure != nil {
		var err error
		if s, err = info.Configure(q.Knob); err != nil {
			return nil, core.Params{}, err
		}
	}
	p, err := core.ReadParams(bytes.NewReader([]byte(q.paramsJSON())))
	return s, p, err
}

// reference answers q with the uncached model: core.EvaluateBus.
func (q query) reference() (core.BusPoint, error) {
	s, p, err := q.resolve()
	if err != nil {
		return core.BusPoint{}, err
	}
	pts, err := core.EvaluateBus(s, p, core.BusCosts(), q.Procs)
	if err != nil {
		return core.BusPoint{}, err
	}
	return pts[q.Procs-1], nil
}

// walkQuery is the n-th point of a never-repeating walk: ls and msdat
// (read by every scheme) follow irrational strides offset by the seed,
// so distinct n give distinct cache keys for every scheme; the other
// fields and the machine size spread the solves across the space.
func walkQuery(seed uint64, n uint64) query {
	o := newRNG(seed, 0xC01D)
	a, b, c, d, e, f, g := o.float(), o.float(), o.float(), o.float(), o.float(), o.float(), o.float()
	x := float64(n)
	return query{
		Scheme: busSchemes[n%uint64(len(busSchemes))],
		Knob:   0.1 + 0.8*frac(g+x*phi3),
		LS:     0.2 + 0.2*frac(a+x*phi1),
		MsDat:  0.004 + 0.02*frac(b+x*phi2),
		Shd:    0.05 + 0.4*frac(c+x*phi3),
		WR:     0.1 + 0.3*frac(d+x*phi4),
		APL:    1 + 24*frac(e+x*phi5),
		Procs:  8 + int(505*frac(f+x*phi4*phi1)),
		Point:  true,
	}
}

// Stream blocks of the walk index: each stream owns 2^22 consecutive
// walk indexes, so streams never share a key and every index stays small
// enough (< 2^24) that the float strides keep distinct values distinct.
const (
	streamBits  = 22
	setupStream = 2 // timed workers use streams 0 and 1
)

// coldStream is one cold_sweep client's batch generator: fresh walk
// points from its own stream, plus re-asks that repeat a point of the
// previous batch at a larger machine size, which makes the evaluator
// extend a cached curve instead of solving from population 1.
type coldStream struct {
	seed   uint64
	stream uint64
	k      uint64
	r      *rng
	prev   []query // fresh points of the previous batch
}

// reaskEvery is the mean spacing of re-asks within a batch: one point in
// eight takes the curve-extend path. No recorded traffic sets this share;
// it is chosen so full solves, the kernel work the workload exists for,
// stay seven points in eight while each 64-point batch still carries
// about eight re-asks for the curve-extend path.
const reaskEvery = 8

func newColdStream(seed, stream uint64) *coldStream {
	return &coldStream{seed: seed, stream: stream, r: newRNG(seed, 0xB0+stream)}
}

// batch returns the next size points of the stream.
func (c *coldStream) batch(size int) []query {
	out := make([]query, 0, size)
	var fresh []query
	used := map[int]bool{}
	for len(out) < size {
		if len(c.prev) > 0 && c.r.intn(reaskEvery) == 0 {
			j := c.r.intn(len(c.prev))
			if !used[j] {
				used[j] = true
				q := c.prev[j]
				q.Procs += 64 + c.r.intn(192)
				out = append(out, q)
				continue
			}
		}
		q := walkQuery(c.seed, c.stream<<streamBits|c.k)
		c.k++
		fresh = append(fresh, q)
		out = append(out, q)
	}
	c.prev = fresh
	return out
}

// Hot-pool geometry. The pool and cap are the gateway drill's
// (cmd/cohereload -gw): the pool exceeds one backend's capped cache but
// fits the two-backend fleet, so affinity routing keeps every key
// resident on its owner. The request shapes are cohereload's defaults
// (-mix point:4,curve:1,sweep:1 -procs 16): points and curves at 16
// processors, sweep batches of 8 points.
const (
	hotPool      = 512
	hotCacheCap  = 310
	hotProcs     = 16
	hotBatches   = 64 // distinct /v1/sweep batches in the pool
	hotBatchSize = 8
)

// hotRequest is one pooled gw_hot request: the path, body, and the
// number of model points its answer carries.
type hotRequest struct {
	Path   string
	Body   string
	Points int
}

// hotRequests builds the gw_hot pool: for each of hotPool workloads a
// point query and a curve query, plus hotBatches sweep batches of pool
// points. Every timed request is drawn from this list. It also returns
// the pool's point queries, for the reference check.
func hotRequests(seed uint64) ([]hotRequest, []query) {
	qs := make([]query, hotPool)
	for i := range qs {
		qs[i] = walkQuery(seed^0x407, uint64(i))
		qs[i].Procs = hotProcs
	}
	reqs := make([]hotRequest, 0, 2*hotPool+hotBatches)
	for _, q := range qs {
		reqs = append(reqs, hotRequest{Path: "/v1/bus", Body: q.body(), Points: 1})
	}
	for _, q := range qs {
		c := q
		c.Point = false
		reqs = append(reqs, hotRequest{Path: "/v1/bus", Body: c.body(), Points: hotProcs})
	}
	r := newRNG(seed, 0x5EED)
	for b := 0; b < hotBatches; b++ {
		batch := make([]query, hotBatchSize)
		for i := range batch {
			batch[i] = qs[r.intn(hotPool)]
		}
		reqs = append(reqs, hotRequest{Path: "/v1/sweep", Body: sweepBody(batch), Points: hotBatchSize})
	}
	return reqs, qs
}

// hotPick draws the next timed gw_hot request index with cohereload's
// default weights: point 4, curve 1, sweep 1.
func hotPick(r *rng) int {
	switch u := r.intn(6); {
	case u < 4:
		return r.intn(hotPool)
	case u < 5:
		return hotPool + r.intn(hotPool)
	default:
		return 2*hotPool + r.intn(hotBatches)
	}
}
