package gw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

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

// maxSweepShare caps the bytes read from one backend's response to its
// share of a fanned-out batch: 64 MiB, about 390,000 curve points. A
// share past it is answered 502 naming the cap, never cut short. A
// variable only so tests can lower it.
var maxSweepShare int64 = 64 << 20

// subGroup is one owner's sub-batch of a fanned-out batch. A failed
// sub-batch carries its status and body to error remapping.
type subGroup struct {
	status  int
	body    []byte
	indexes []int  // original caller indexes, sub-batch order
	backend string // URL of the backend that answered; "" if none did
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
		g.forward(w, r, body, rawKey(body))
		return
	}

	keys := make([]uint64, len(points))
	for i, pt := range points {
		keys[i] = g.queryKey(pt.Query, pt.Err, body[pt.Start:pt.End])
	}
	// Partition by owner over the current healthy set. Group order
	// follows first appearance, so reassembly and error precedence are
	// deterministic for a given batch and fleet state.
	groupOf := map[*backend]int{}
	var groups []*subGroup // indexes filled here; the rest after send
	var groupKeys []uint64
	for i, key := range keys {
		b := g.rank(key)[0]
		gi, ok := groupOf[b]
		if !ok {
			gi = len(groups)
			groupOf[b] = gi
			groups = append(groups, &subGroup{})
			groupKeys = append(groupKeys, key)
		}
		groups[gi].indexes = append(groups[gi].indexes, i)
	}
	if len(groups) == 1 {
		g.forward(w, r, body, keys[0])
		return
	}

	// One request ID spans the whole fan-out: every sub-batch carries it
	// to its backend, so the backends' logs for one client batch join up.
	start := time.Now()
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
			badGateway := func(msg string) {
				g.badGateway.Add(1)
				grp.status, grp.body = http.StatusBadGateway, []byte(fmt.Sprintf("{\"error\":%q}", msg))
			}
			resp, ab, release, err := g.attempt(ctx, g.rank(groupKeys[gi]), groupKeys[gi], http.MethodPost, r.URL.RequestURI(), sub, trace)
			if err != nil {
				badGateway("gw: no backend answered: " + err.Error())
				return
			}
			defer release()
			defer resp.Body.Close()
			grp.backend = ab.url
			rb, err := io.ReadAll(io.LimitReader(resp.Body, maxSweepShare+1))
			switch {
			case err != nil:
				badGateway("gw: reading backend response: " + err.Error())
				return
			case int64(len(rb)) > maxSweepShare:
				badGateway(fmt.Sprintf("gw: backend response for a %d-point share exceeds the %d-byte cap", len(grp.indexes), maxSweepShare))
				return
			case resp.StatusCode != http.StatusOK:
				grp.status, grp.body = resp.StatusCode, rb
				return
			}
			var sr sweepResult
			if err := json.Unmarshal(rb, &sr); err != nil || len(sr.Results) != len(grp.indexes) {
				badGateway(fmt.Sprintf("gw: backend returned %d results for %d points", len(sr.Results), len(grp.indexes)))
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
	var failed *subGroup
	var answered []string
	for _, grp := range groups {
		if grp.status != 0 && (failed == nil || grp.indexes[0] < failed.indexes[0]) {
			failed = grp
		}
		if grp.backend != "" {
			answered = append(answered, grp.backend)
		}
	}
	// One access-log line for the whole fan-out, as a forwarded request
	// gets, naming every backend that answered a share.
	backends := strings.Join(answered, ",")
	if failed != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(failed.status)
		w.Write(remapPointErr(failed.body, failed.indexes))
		g.logRequest(r, failed.status, backends, trace, start)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	out := struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}{Count: len(results), Results: results}
	json.NewEncoder(w).Encode(out)
	g.logRequest(r, http.StatusOK, backends, trace, start)
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
