package gw

import (
	"swcc/internal/core"
	"swcc/internal/serve"
)

// Routing keys are the gateway's half of the cache-affinity contract:
// two requests the backend answers from the same memo entries must hash
// to the same key, so they land on the same backend and the second one
// is a hit. The routing key is the hash of the evaluator's own cache
// identity, core.KeyOf, which collapses every parameter the scheme
// ignores. It deliberately leaves procs out of bus keys: the
// evaluator's curves are prefix-shared, so all populations of one
// (scheme, workload) curve belong on one backend.

// jobsKey pins the whole /v1/jobs subtree to one rendezvous owner: job
// IDs exist in a single backend's registry, so splitting the subtree
// would make a submitted job unfindable.
const jobsKey = core.FNVOffset ^ 0x6a6f6273 // "jobs"

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
	route = core.KeyOf(q.Scheme, q.Params).Hash(core.FNVOffset)
	h := core.HashBytes(route, path)
	h = core.HashFloat(h, float64(q.Procs))
	if q.Point {
		h = core.HashBytes(h, "point")
	}
	return route, h, true
}

// rawKey is the fallback routing key: FNV-1a over the body bytes.
func rawKey(body []byte) uint64 { return core.HashBytes(core.FNVOffset, body) }
