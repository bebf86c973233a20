package gw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"

	"swcc/internal/core"
	"swcc/internal/obs"
	"swcc/internal/serve"
)

// /v1/sweep fan-out: one client batch carries many grid points, and
// under affinity each point has its own owner backend. Forwarding the
// whole batch to any single backend would make every other backend's
// share of the grid a guaranteed miss there, so the gateway partitions
// the points by owner, sends the sub-batches concurrently, and
// reassembles the results in caller order — the client sees exactly the
// response one backend would have produced, while every point was
// solved where its curve lives.

// sweepResult is the slice of a backend's /v1/sweep response the
// gateway needs for reassembly.
type sweepResult struct {
	Results []json.RawMessage `json:"results"`
}

// subFailure is one failed sub-batch, carried to error remapping.
type subFailure struct {
	status  int
	body    []byte
	indexes []int // original caller indexes, sub-batch order
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, fmt.Sprintf("gw: reading body: %v", err))
		return
	}
	// The batch decodes through the backend's own decoder. Malformed or
	// empty batches forward whole: the backend owns the error contract.
	// So does a batch repeating "points", whose points are no single
	// byte spans to regroup. Round-robin forwards whole too — the
	// control policy measures what routing ignores keys, not a
	// half-affinity hybrid. A single healthy backend makes partitioning
	// a no-op.
	points, spans, err := serve.DecodeSweep(body)
	if err != nil || !spans || len(points) == 0 ||
		g.cfg.Policy == PolicyRoundRobin || len(g.healthySet()) == 1 {
		g.forward(w, r, body, rawKey(body), proxyOpts{retriable: true})
		return
	}

	keys := make([]uint64, len(points))
	for i, pt := range points {
		if pt.Err == nil {
			keys[i] = core.KeyOf(pt.Query.Scheme, pt.Query.Params).Hash(core.FNVOffset)
		} else {
			g.keyFallbacks.Add(1)
			keys[i] = rawKey(body[pt.Start:pt.End])
		}
	}
	// Partition by owner over the current healthy set. Group order
	// follows first appearance, so reassembly and error precedence are
	// deterministic for a given batch and fleet state.
	groupOf := map[*backend]int{}
	var groups []*subFailure // indexes filled here; status/body after send
	var groupKeys []uint64
	for i, key := range keys {
		b := g.rank(key)[0]
		gi, ok := groupOf[b]
		if !ok {
			gi = len(groups)
			groupOf[b] = gi
			groups = append(groups, &subFailure{})
			groupKeys = append(groupKeys, key)
		}
		groups[gi].indexes = append(groups[gi].indexes, i)
	}
	if len(groups) == 1 {
		g.forward(w, r, body, keys[0], proxyOpts{retriable: true})
		return
	}

	// One request ID spans the whole fan-out: every sub-batch carries it
	// to its backend, so the backends' logs for one client batch join up.
	trace := r.Header.Get(traceHeader)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	w.Header().Set(traceHeader, trace)

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	results := make([]json.RawMessage, len(points))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			grp := groups[gi]
			sub := subBatch(body, points, grp.indexes)
			// Rank by the group's key: the owner leads, and a transport
			// failure retries the group on the next-ranked survivor.
			resp, _, release, err := g.attempt(ctx, g.rank(groupKeys[gi]), groupKeys[gi], http.MethodPost, r.URL.RequestURI(), sub, trace, proxyOpts{retriable: true})
			if err != nil {
				g.badGateway.Add(1)
				grp.status, grp.body = http.StatusBadGateway, []byte(fmt.Sprintf("{\"error\":%q}", "gw: no backend answered: "+err.Error()))
				return
			}
			defer release()
			defer resp.Body.Close()
			rb, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			if err != nil {
				grp.status, grp.body = http.StatusBadGateway, []byte(fmt.Sprintf("{\"error\":%q}", "gw: reading backend response: "+err.Error()))
				return
			}
			if resp.StatusCode != http.StatusOK {
				grp.status, grp.body = resp.StatusCode, rb
				return
			}
			var sr sweepResult
			if err := json.Unmarshal(rb, &sr); err != nil || len(sr.Results) != len(grp.indexes) {
				grp.status, grp.body = http.StatusBadGateway, []byte(fmt.Sprintf("{\"error\":%q}",
					fmt.Sprintf("gw: backend returned %d results for %d points", len(sr.Results), len(grp.indexes))))
				return
			}
			for j, idx := range grp.indexes {
				results[idx] = sr.Results[j]
			}
		}(gi)
	}
	wg.Wait()

	// Failure precedence mirrors a single backend's: the error naming
	// the lowest original point index wins, its sub-batch-local index
	// rewritten so the client is told which of ITS points failed.
	var failed *subFailure
	for _, grp := range groups {
		if grp.status != 0 && (failed == nil || grp.indexes[0] < failed.indexes[0]) {
			failed = grp
		}
	}
	if failed != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(failed.status)
		w.Write(remapPointErr(failed.body, failed.indexes))
		return
	}

	w.Header().Set("Content-Type", "application/json")
	out := struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}{Count: len(results), Results: results}
	json.NewEncoder(w).Encode(out)
}

// subBatch builds the /v1/sweep body for the points at the given
// indexes, in order, from their original bytes.
func subBatch(body []byte, points []serve.SweepPoint, idx []int) []byte {
	sub := []byte(`{"points":[`)
	for j, i := range idx {
		if j > 0 {
			sub = append(sub, ',')
		}
		sub = append(sub, body[points[i].Start:points[i].End]...)
	}
	return append(sub, "]}"...)
}

// pointIndexRE matches the backend's per-point error prefix.
var pointIndexRE = regexp.MustCompile(`points\[(\d+)\]`)

// remapPointErr rewrites a sub-batch's "points[K]" error indexes back
// to the caller's original point positions, so a validation error from
// a partitioned batch names the same point a single backend would have
// named. Indexes that cannot be mapped pass through untouched.
func remapPointErr(body []byte, indexes []int) []byte {
	return pointIndexRE.ReplaceAllFunc(body, func(m []byte) []byte {
		sub := pointIndexRE.FindSubmatch(m)
		k, err := strconv.Atoi(string(sub[1]))
		if err != nil || k < 0 || k >= len(indexes) {
			return m
		}
		return []byte(fmt.Sprintf("points[%d]", indexes[k]))
	})
}
