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

// splitmix64 is the rendezvous score mixer: cheap, stateless, and
// avalanching, so one flipped key bit reshuffles the backend ranking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// routeKey derives a single-point request's routing key. Bus and
// network bodies decode through the backend's own decoder
// (serve.DecodeBus, DecodeNetwork) and key by queryKey. Endpoints with
// no single scheme (advisor, sensitivity) hash the raw bytes, which
// affects only affinity quality (identical bodies still co-locate),
// never correctness.
func (g *Gateway) routeKey(path string, body []byte) uint64 {
	var q serve.Query
	var err error
	switch path {
	case "/v1/bus":
		q, err = serve.DecodeBus(body)
	case "/v1/network":
		q, err = serve.DecodeNetwork(body)
	default:
		return rawKey(body)
	}
	return g.queryKey(q, err, body)
}

// queryKey is the one definition of a routing key for a decoded query,
// shared by the single-point endpoints and each /v1/sweep point: the
// hash of (scheme identity, canonical params). A query the decoder
// rejected — which the backend will reject too — keys by its raw bytes
// and counts as a key fallback.
func (g *Gateway) queryKey(q serve.Query, err error, raw []byte) uint64 {
	if err != nil {
		g.keyFallbacks.Add(1)
		return rawKey(raw)
	}
	return core.KeyOf(q.Scheme, q.Params).Hash(core.FNVOffset)
}

// rawKey is the fallback routing key: FNV-1a over the body bytes.
func rawKey(body []byte) uint64 { return core.HashBytes(core.FNVOffset, body) }
