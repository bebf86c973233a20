package gw

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"swcc/internal/core"
	"swcc/internal/serve"
	"swcc/internal/sweep"
)

// canonicalBody re-encodes a resolved query as a different body asking
// the same question: the scheme's registered name, the knob spelled out,
// every workload field explicit (or only the canonical representative
// of the fields the scheme reads), fields in another order.
func canonicalBody(path string, q serve.Query, collapse bool) string {
	f := ftoa
	p := q.Params
	if collapse {
		p = core.CanonicalParams(q.Scheme, p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"params": {"nshd": %s, "opres": %s, "oclean": %s, "mdshd": %s, "apl": %s, "wr": %s, "shd": %s, "md": %s, "mains": %s, "msdat": %s, "ls": %s}`,
		f(p.NShd), f(p.OPres), f(p.OClean), f(p.MdShd), f(p.APL), f(p.WR), f(p.Shd), f(p.MD), f(p.MsIns), f(p.MsDat), f(p.LS))
	switch s := q.Scheme.(type) {
	case core.Hybrid:
		fmt.Fprintf(&b, `, "lockfrac": %s`, f(s.LockFrac))
	case core.HybridUpdate:
		fmt.Fprintf(&b, `, "updatefrac": %s`, f(s.UpdateFrac))
	}
	if path == "/v1/network" {
		fmt.Fprintf(&b, `, "stages": %d`, q.Stages)
		if q.Model != "" {
			fmt.Fprintf(&b, `, "model": %q`, q.Model)
		}
	} else {
		fmt.Fprintf(&b, `, "procs": %d, "point": %v`, q.Procs, q.Point)
	}
	fmt.Fprintf(&b, `, "scheme": %q}`, q.Scheme.Name())
	return b.String()
}

// FuzzPointKey: key derivation never panics on any body, a body the
// decoder rejects keys by its raw bytes and counts one key fallback,
// and bodies that resolve to the same canonical query get the same
// routing key.
func FuzzPointKey(f *testing.F) {
	for _, r := range routingGoldenRequests() {
		f.Add(r.path == "/v1/network", []byte(r.body))
	}
	f.Add(false, []byte(`{"scheme": "hybrid", "lockfrac": -0, "params": {"shd": -0}}`))
	f.Add(false, []byte(`{"scheme": "base"`))
	f.Fuzz(func(t *testing.T, network bool, body []byte) {
		path, decode := "/v1/bus", serve.DecodeBus
		if network {
			path, decode = "/v1/network", serve.DecodeNetwork
		}
		g := &Gateway{}
		route := g.routeKey(path, body)
		q, err := decode(body)
		if err != nil {
			if route != rawKey(body) || g.keyFallbacks.Load() != 1 {
				t.Fatalf("rejected body %q keyed %x with %d fallbacks, want raw key %x and 1", body, route, g.keyFallbacks.Load(), rawKey(body))
			}
			return
		}
		if n := g.keyFallbacks.Load(); n != 0 {
			t.Fatalf("accepted body %q counted %d key fallbacks", body, n)
		}
		for _, collapse := range []bool{false, true} {
			alt := canonicalBody(path, q, collapse)
			if r2 := g.routeKey(path, []byte(alt)); r2 != route || g.keyFallbacks.Load() != 0 {
				t.Fatalf("%q and %q ask the same question but key %x vs %x", body, alt, route, r2)
			}
		}
	})
}

// TestRoutingKeyMatchesEvaluatorEntry pins the affinity contract on
// every pair of pinned /v1/bus bodies: two bodies that share a routing
// key are answered from one curve-cache entry. The converse does not
// hold: different questions with equal demands correctly share one
// curve (at level low, swflush and swflush-prio have no high-priority
// demand and so one FCFS curve).
func TestRoutingKeyMatchesEvaluatorEntry(t *testing.T) {
	type keyed struct {
		body  string
		q     serve.Query
		route uint64
	}
	g := &Gateway{}
	var bodies []keyed
	for _, r := range routingGoldenRequests() {
		if r.path != "/v1/bus" {
			continue
		}
		q, err := serve.DecodeBus([]byte(r.body))
		if err != nil {
			t.Fatalf("%s: %v", r.body, err)
		}
		bodies = append(bodies, keyed{r.body, q, g.routeKey(r.path, []byte(r.body))})
	}
	ctx, costs := context.Background(), core.BusCosts()
	for i, a := range bodies {
		for _, b := range bodies[i+1:] {
			if a.route != b.route {
				continue
			}
			ev := sweep.NewEvaluator()
			for _, q := range []serve.Query{a.q, b.q} {
				if _, err := ev.BusPointCtx(ctx, q.Scheme, q.Params, costs, 1); err != nil {
					t.Fatalf("%s: %v", a.body, err)
				}
			}
			if n := ev.Stats().CurveEntries; n != 1 {
				t.Errorf("%s and %s: equal routing keys but %d curve entries", a.body, b.body, n)
			}
		}
	}
}

// BenchmarkPointKey measures deriving the routing key of one
// single-point /v1/bus body shaped like the benchmark's traffic.
func BenchmarkPointKey(b *testing.B) {
	body := []byte(`{"scheme": "hybrid", "lockfrac": 0.6180339887498949, "params": {"ls": 0.30000000000000004, "msdat": 0.014, "shd": 0.25, "wr": 0.25, "apl": 13}, "procs": 258, "point": true}`)
	g := &Gateway{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.routeKey("/v1/bus", body)
	}
	if g.keyFallbacks.Load() != 0 {
		b.Fatal("body not keyed canonically")
	}
}
