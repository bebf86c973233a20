package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Cold-sweep geometry: 64-point batches against one backend whose memo
// cache is capped at coldCacheCap curves; set-up fills it past the cap
// so the timed window runs with CLOCK eviction in steady state.
const (
	coldBatch    = 64
	coldCacheCap = 4096
	coldFill     = coldCacheCap * 5 / 4 // set-up points: enough to reach the cap in every shard
	coldSample   = 32                   // one batch in coldSample has a point checked against the model
)

// sweepReply is the part of a /v1/sweep response the checks read.
type sweepReply struct {
	Results []busReply `json:"results"`
}

// checked is one sampled point and the server's answer to it.
type checked struct {
	q   query
	got busReply
}

// runColdSweep measures the write side of the memo cache: batches of
// never-seen points (plus deliberate re-asks at larger machine sizes)
// straight to one capped backend, with the kernel doing real work.
func runColdSweep(o options) (*result, error) {
	res := &result{}
	client := newClient()
	var rec *recorder
	if o.trace {
		rec = newRecorder(map[string]string{"serve": "client"})
	}

	var be *backend
	var setups []float64
	setupPoster := newPoster(client)
	var err error
	for round := 0; round < setupRounds; round++ {
		if be != nil {
			be.stop()
		}
		t0 := time.Now()
		if be, err = startBackend(coldCacheCap, rec); err != nil {
			return nil, err
		}
		fill := newColdStream(o.seed, setupStream)
		for n := 0; n < coldFill; n += coldBatch {
			qs := fill.batch(coldBatch)
			res.Setup.Attempted++
			code, body, err := setupPoster.post(be.url+"/v1/sweep", sweepBody(qs), "")
			if err != nil || code != http.StatusOK || !bytes.HasPrefix(body, []byte(fmt.Sprintf(`{"count":%d,`, len(qs)))) {
				res.Setup.Failed++
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer be.stop()

	// Each client owns a stream; the batch schedule is fixed by the
	// seed. One batch in coldSample has a seeded point decoded and kept
	// for the reference check after the window.
	var samples [clients][]checked
	streams := [clients]*coldStream{}
	pickers := [clients]*rng{}
	posters := [clients]*poster{}
	for w := range streams {
		streams[w] = newColdStream(o.seed, uint64(w))
		pickers[w] = newRNG(o.seed, 0x5A+uint64(w))
		posters[w] = newPoster(client)
	}
	do := func(w int, id string) (bool, int) {
		qs := streams[w].batch(coldBatch)
		code, body, err := posters[w].post(be.url+"/v1/sweep", sweepBody(qs), id)
		if err != nil || code != http.StatusOK || !bytes.HasPrefix(body, []byte(fmt.Sprintf(`{"count":%d,`, len(qs)))) {
			return false, 0
		}
		if pickers[w].intn(coldSample) == 0 {
			i := pickers[w].intn(len(qs))
			var rep sweepReply
			if err := json.Unmarshal(body, &rep); err != nil || len(rep.Results) != len(qs) {
				return false, 0
			}
			samples[w] = append(samples[w], checked{qs[i], rep.Results[i]})
		}
		return true, len(qs)
	}

	if !o.trace {
		win := loadWindow(time.Duration(o.seconds*float64(time.Second)), nil, false, do)
		res.Timed = phase{Attempted: win.requests, Failed: win.failed}
		addEndToEnd(res, setups, win, true)
	} else if err := traceServing(o, res, rec, client, []*backend{be}, nil, do, do); err != nil {
		return nil, err
	}

	// Reference check, outside the timed window: each sampled point must
	// be bit-identical to an uncached core.EvaluateBus solve.
	for _, ss := range samples {
		for _, c := range ss {
			res.Timed.Attempted++
			exp, err := c.q.reference()
			if err != nil || len(c.got.Points) != 1 || c.got.Points[0] != exp {
				res.Timed.Failed++
				res.mismatch("sweep point %s differs from core.EvaluateBus: %v", c.q.body(), err)
			}
		}
	}
	return res, nil
}
