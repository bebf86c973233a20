package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"swcc/internal/core"
)

// hotFleet is gw_hot's system under test: two capped backends behind
// one affinity gateway.
type hotFleet struct {
	backends []*backend
	gw       *gateway
}

func (f *hotFleet) stop() {
	if f.gw != nil {
		f.gw.stop()
	}
	for _, b := range f.backends {
		b.stop()
	}
}

func bootHotFleet(rec *recorder) (*hotFleet, error) {
	f := &hotFleet{}
	for i := 0; i < 2; i++ {
		b, err := startBackend(hotCacheCap, rec)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	g, err := startGateway(f.backends, rec)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gw = g
	return f, nil
}

// busReply is the part of a /v1/bus response the reference check reads.
type busReply struct {
	Points []core.BusPoint `json:"points"`
}

// runGwHot measures the interactive deployment path: every request is a
// pooled hit that the gateway routes to the backend holding its curve.
func runGwHot(o options) (*result, error) {
	res := &result{}
	reqs, pool := hotRequests(o.seed)
	client := newClient()

	// Reference bodies come straight from a separate uncapped backend;
	// only their digests are kept, so the check adds little to the heap
	// the run measures. A sample of pool points is checked against the
	// uncached model on the way.
	ref, err := startBackend(0, nil)
	if err != nil {
		return nil, err
	}
	want := make([][sha256.Size]byte, len(reqs))
	checkPoint := map[int]bool{}
	pick := newRNG(o.seed, 0xC4EC)
	for k := 0; k < 64; k++ {
		checkPoint[pick.intn(hotPool)] = true
	}
	setupPoster := newPoster(client)
	for i, rq := range reqs {
		code, body, err := setupPoster.post(ref.url+rq.Path, rq.Body, "")
		if err != nil || code != http.StatusOK {
			ref.stop()
			return nil, fmt.Errorf("reference backend: %s: status %d: %v", rq.Body, code, err)
		}
		want[i] = sha256.Sum256(body)
		if checkPoint[i] {
			var got busReply
			exp, err := pool[i].reference()
			res.Setup.Attempted++
			if err != nil || json.Unmarshal(body, &got) != nil || len(got.Points) != 1 || got.Points[0] != exp {
				res.Setup.Failed++
				res.mismatch("pool point %d differs from core.EvaluateBus: %v", i, err)
			}
		}
	}
	ref.stop()

	var rec *recorder
	if o.trace {
		rec = newRecorder(map[string]string{"gw": "client", "serve": "gw"})
	}
	// Set up afresh setupRounds times; the last fleet is measured.
	var fleet *hotFleet
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if fleet != nil {
			fleet.stop()
		}
		t0 := time.Now()
		if fleet, err = bootHotFleet(rec); err != nil {
			return nil, err
		}
		for i, rq := range reqs {
			res.Setup.Attempted++
			code, body, err := setupPoster.post(fleet.gw.url+rq.Path, rq.Body, "")
			if err != nil || code != http.StatusOK {
				res.Setup.Failed++
				continue
			}
			if sha256.Sum256(body) != want[i] {
				res.Setup.Failed++
				res.mismatch("gateway body for %s differs from the direct backend body", rq.Body)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fleet.stop()

	traffic := func() doFunc {
		rngs := make([]*rng, clients)
		posters := make([]*poster, clients)
		for w := range rngs {
			rngs[w] = newRNG(o.seed, 0x100+uint64(w))
			posters[w] = newPoster(client)
		}
		return func(w int, id string) (bool, int) {
			i := hotPick(rngs[w])
			rq := reqs[i]
			code, body, err := posters[w].post(fleet.gw.url+rq.Path, rq.Body, id)
			if err != nil || code != http.StatusOK {
				return false, 0
			}
			if sha256.Sum256(body) != want[i] {
				res.mismatch("gateway body for %s changed under load", rq.Body)
				return false, 0
			}
			return true, rq.Points
		}
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		win := loadWindow(dur, nil, false, traffic())
		res.Timed = phase{Attempted: win.requests, Failed: win.failed}
		addEndToEnd(res, setups, win, false)
		return res, nil
	}

	if err := traceServing(o, res, rec, client, fleet.backends, fleet.gw, traffic(), traffic()); err != nil {
		return nil, err
	}
	return res, nil
}
