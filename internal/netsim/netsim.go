// Package netsim is a cycle-level simulator of an unbuffered,
// circuit-switched multistage interconnection network (butterfly/Omega
// topology of 2x2 switches), the network the paper analyzes with Patel's
// probabilistic model in Section 6.
//
// The paper notes: "We are not aware of any validation of this model
// against multiprocessor traces." This simulator closes that gap for the
// synthetic-workload case: processors alternate between thinking and
// holding a circuit to a uniformly random memory module; switch-output
// conflicts drop all but one contender, and dropped requests retry —
// exactly the behavior the analytical fixed point approximates. The
// experiment registry's "patel" entry compares the two.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadConfig reports an invalid simulation configuration.
var ErrBadConfig = errors.New("netsim: invalid config")

// Config describes one network simulation.
type Config struct {
	// Stages is the number of switch stages; the machine has
	// 2^Stages processors and memory modules.
	Stages int
	// Think is the mean think time in cycles between a processor's
	// transactions (the model's c-b = 1/m). Sampled exponentially.
	Think float64
	// Hold is the cycles a granted circuit is held per transaction
	// (the model's t = b, message words plus the 2n path occupancy).
	Hold int
	// Cycles is the simulated horizon.
	Cycles int
	// WarmupCycles are excluded from statistics.
	WarmupCycles int
	// Seed makes the run deterministic.
	Seed uint64
}

func (c Config) validate() error {
	switch {
	case c.Stages < 1 || c.Stages > 12:
		return fmt.Errorf("%w: stages %d", ErrBadConfig, c.Stages)
	case c.Think <= 0:
		return fmt.Errorf("%w: think %g", ErrBadConfig, c.Think)
	case c.Hold < 1:
		return fmt.Errorf("%w: hold %d", ErrBadConfig, c.Hold)
	case c.Cycles < 1:
		return fmt.Errorf("%w: cycles %d", ErrBadConfig, c.Cycles)
	case c.WarmupCycles < 0 || c.WarmupCycles >= c.Cycles:
		return fmt.Errorf("%w: warmup %d of %d cycles", ErrBadConfig, c.WarmupCycles, c.Cycles)
	}
	return nil
}

// Result summarizes a network simulation.
type Result struct {
	// Config echoes the run parameters.
	Config Config
	// Utilization is the mean fraction of (post-warmup) time
	// processors spent thinking — directly comparable to the Patel
	// model's U.
	Utilization float64
	// Completed is the number of transactions finished.
	Completed uint64
	// Attempts is the number of path-setup attempts (retries
	// included).
	Attempts uint64
	// Acceptance is Completed/Attempts: the per-attempt success
	// probability, comparable to the model's acceptance.
	Acceptance float64
	// MeanWait is the mean cycles a transaction waited before its
	// circuit was granted.
	MeanWait float64
	// UtilizationCI95 is the half-width of a 95% confidence interval
	// on Utilization, from the method of batch means over 20
	// post-warmup batches. A wide interval means the run was too
	// short.
	UtilizationCI95 float64
	// Batches is the number of batches the interval used.
	Batches int
}

// processor phases.
type phase uint8

const (
	thinking phase = iota
	waiting
	holding
)

type proc struct {
	phase phase
	// dest is the target memory module while waiting/holding.
	dest int
	// waitedSince is the cycle the current request was first issued.
	waitedSince int
	// retryAt is the earliest cycle a waiting request can succeed: the
	// latest release among its path's links at its last failed attempt.
	// Link releases only move later, so attempts before it must fail.
	retryAt int
}

// Run simulates the network and returns aggregate statistics.
//
// Each cycle, processors whose thinking or holding phase ends change
// phase in ascending index order (drawing a destination or a think
// time), then every waiting processor, in random order, tries to set up
// its circuit. Only those processors are visited: the others sleep on a
// wake-up heap, their thinking cycles are counted as whole intervals
// when the spell starts, and cycles in which nothing waits are skipped.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Stages
	nproc := 1 << n
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))

	var thinkingCycles, completed, attempts, waitSum uint64

	// Batch means for the confidence interval on utilization: batch b
	// covers measured cycles [b*batchLen, (b+1)*batchLen), and the last
	// batch also the leftover measured%nbatches cycles.
	const nbatches = 20
	measured := cfg.Cycles - cfg.WarmupCycles
	batchLen := measured / nbatches
	batchThinking := make([]uint64, nbatches)

	procs := make([]proc, nproc)
	wakes := make(wakeHeap, 0, nproc)
	// think starts processor i's thinking spell: it thinks from cycle
	// from until it wakes at until (or at from, if until is earlier).
	// The spell's measured cycles are counted at once.
	think := func(i, from, until int) {
		procs[i].phase = thinking
		wake := max(until, from)
		if wake < cfg.Cycles {
			wakes.push(wakeup{wake, i})
		}
		lo, hi := max(from, cfg.WarmupCycles), min(wake, cfg.Cycles)
		if lo >= hi {
			return
		}
		thinkingCycles += uint64(hi - lo)
		if batchLen == 0 {
			return
		}
		for b := min((lo-cfg.WarmupCycles)/batchLen, nbatches-1); lo < hi; b++ {
			end := hi
			if b < nbatches-1 {
				end = min(hi, cfg.WarmupCycles+(b+1)*batchLen)
			}
			batchThinking[b] += uint64(end - lo)
			lo = end
		}
	}
	for i := range procs {
		think(i, 0, int(rng.ExpFloat64()*cfg.Think))
	}

	// linkFree[s*nproc+l] is the first cycle link l of stage s is free;
	// path[i*n+s] is the stage-s link of processor i's request.
	// pending holds the waiting processors.
	linkFree := make([]int, n*nproc)
	path := make([]int, nproc*n)
	pending := newBitset(nproc)
	npending := 0
	order := make([]int, 0, nproc)

	for now := 0; now < cfg.Cycles; {
		counting := now >= cfg.WarmupCycles
		for wakes.due(now) {
			i := wakes.pop().proc
			p := &procs[i]
			if p.phase == holding {
				think(i, now+1, now+int(rng.ExpFloat64()*cfg.Think))
				continue
			}
			p.phase = waiting
			p.dest = rng.IntN(nproc)
			p.waitedSince = now
			p.retryAt = now
			for s := 0; s < n; s++ {
				// The butterfly link at stage s of the path i->dest:
				// the node address keeps dest's top s+1 bits and i's
				// remaining low bits.
				low := n - 1 - s
				path[i*n+s] = s*nproc + ((p.dest>>low)<<low | i&(1<<low-1))
			}
			pending.set(i)
			npending++
		}
		order = order[:0]
		pending.each(func(i int) { order = append(order, i) })
		// Random arbitration order approximates per-switch random
		// winner selection.
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			p := &procs[i]
			if counting {
				attempts++
			}
			if p.retryAt > now {
				continue
			}
			links := path[i*n : i*n+n]
			for _, l := range links {
				p.retryAt = max(p.retryAt, linkFree[l])
			}
			if p.retryAt > now {
				continue
			}
			freeAt := now + cfg.Hold
			for _, l := range links {
				linkFree[l] = freeAt
			}
			p.phase = holding
			if freeAt < cfg.Cycles {
				wakes.push(wakeup{freeAt, i})
			}
			pending.clear(i)
			npending--
			if counting {
				completed++
				waitSum += uint64(now - p.waitedSince)
			}
		}
		switch {
		case npending > 0:
			now++
		case len(wakes) > 0:
			now = wakes[0].at
		default:
			now = cfg.Cycles
		}
	}

	res := &Result{
		Config:      cfg,
		Utilization: float64(thinkingCycles) / float64(uint64(measured)*uint64(nproc)),
		Completed:   completed,
		Attempts:    attempts,
	}
	if attempts > 0 {
		res.Acceptance = float64(completed) / float64(attempts)
	}
	if completed > 0 {
		res.MeanWait = float64(waitSum) / float64(completed)
	}
	if batchLen > 0 {
		// Batch means with the t(19) 97.5% quantile, each batch divided
		// by its own length.
		var mean float64
		batchU := make([]float64, nbatches)
		for i, tc := range batchThinking {
			length := batchLen
			if i == nbatches-1 {
				length = measured - (nbatches-1)*batchLen
			}
			batchU[i] = float64(tc) / float64(uint64(length)*uint64(nproc))
			mean += batchU[i]
		}
		mean /= nbatches
		var s2 float64
		for _, u := range batchU {
			s2 += (u - mean) * (u - mean)
		}
		s2 /= nbatches - 1
		const t19 = 2.093
		res.UtilizationCI95 = t19 * math.Sqrt(s2/nbatches)
		res.Batches = nbatches
	}
	return res, nil
}
