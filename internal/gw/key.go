package gw

import (
	"math"

	"swcc/internal/core"
	"swcc/internal/serve"
)

// Routing keys are the gateway's half of the cache-affinity contract:
// two requests the backend answers from the same memo entries must hash
// to the same key, so they land on the same backend and the second one
// is a hit. The gateway reuses the model's own canonicalization —
// core.CanonicalParams collapses every parameter the scheme ignores —
// and deliberately leaves procs out of bus keys: the evaluator's curves
// are prefix-shared, so all populations of one (scheme, workload) curve
// belong on one backend.

// FNV-1a constants, matching the evaluator's shard hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// jobsKey pins the whole /v1/jobs subtree to one rendezvous owner: job
// IDs exist in a single backend's registry, so splitting the subtree
// would make a submitted job unfindable.
const jobsKey uint64 = fnvOffset ^ 0x6a6f6273 // "jobs"

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashFloat(h uint64, f float64) uint64 {
	b := math.Float64bits(f)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (b >> i & 0xff)) * fnvPrime
	}
	return h
}

// splitmix64 is the rendezvous score mixer: cheap, stateless, and
// avalanching, so one flipped key bit reshuffles the backend ranking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keys derives a request's routing key and, for the pure single-point
// endpoints, its response-cache key. Bus and network bodies decode
// through the backend's own decoder (serve.DecodeBus, DecodeNetwork) and
// key on (scheme identity, canonical params). Bodies the decoder rejects
// — which the backend will reject too — and endpoints with no single
// scheme (advisor, sensitivity) fall back to hashing the raw bytes,
// which affects only affinity quality (identical bodies still
// co-locate), never correctness.
//
// Unlike the routing key, the response key must separate everything
// that changes the response BYTES, so it folds in the path, the
// processor count as sent (bus routing keys deliberately share one key
// across populations of a curve), and the point/full response shape.
// Only a canonically keyed body is cacheable: a canonical key proves two
// requests are the same question.
func (g *Gateway) keys(path string, body []byte) (route, resp uint64, cacheable bool) {
	var q serve.Query
	var err error
	switch path {
	case "/v1/bus":
		q, err = serve.DecodeBus(body)
	case "/v1/network":
		q, err = serve.DecodeNetwork(body)
	default:
		return rawKey(body), 0, false
	}
	if err != nil {
		g.keyFallbacks.Add(1)
		return rawKey(body), 0, false
	}
	route = queryKey(q)
	h := hashString(route, path)
	h = hashFloat(h, float64(q.Procs))
	if q.Point {
		h = hashString(h, "point")
	}
	return route, h, true
}

// queryKey keys one resolved query on its canonical cache identity.
func queryKey(q serve.Query) uint64 {
	cp := core.CanonicalParams(q.Scheme, q.Params)
	h := hashString(fnvOffset, core.SchemeKey(q.Scheme))
	for _, f := range [...]float64{
		cp.LS, cp.MsDat, cp.MsIns, cp.MD, cp.Shd, cp.WR,
		cp.APL, cp.MdShd, cp.OClean, cp.OPres, cp.NShd,
	} {
		h = hashFloat(h, f)
	}
	return h
}

// rawKey is the fallback routing key: FNV-1a over the body bytes.
func rawKey(body []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range body {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}
