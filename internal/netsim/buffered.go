package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// BufferedConfig describes a cycle-level simulation of a buffered
// packet-switched multistage network — the paper's Section 7 future-work
// variant, for which queueing.BufferedNetwork provides the analytical
// approximation. Switches are output-queued with unbounded buffers and
// forward one packet per link per cycle.
type BufferedConfig struct {
	// Stages is the number of switch stages (2^Stages ports).
	Stages int
	// Think is the mean think time between transactions, sampled
	// exponentially.
	Think float64
	// Packets is the number of packets per transaction (the message
	// words; no circuit set-up exists here).
	Packets int
	// Cycles is the simulated horizon.
	Cycles int
	// WarmupCycles are excluded from statistics.
	WarmupCycles int
	// Seed makes the run deterministic.
	Seed uint64
}

func (c BufferedConfig) validate() error {
	switch {
	case c.Stages < 1 || c.Stages > 12:
		return fmt.Errorf("%w: stages %d", ErrBadConfig, c.Stages)
	case c.Think <= 0:
		return fmt.Errorf("%w: think %g", ErrBadConfig, c.Think)
	case c.Packets < 1:
		return fmt.Errorf("%w: packets %d", ErrBadConfig, c.Packets)
	case c.Cycles < 1:
		return fmt.Errorf("%w: cycles %d", ErrBadConfig, c.Cycles)
	case c.WarmupCycles < 0 || c.WarmupCycles >= c.Cycles:
		return fmt.Errorf("%w: warmup %d of %d", ErrBadConfig, c.WarmupCycles, c.Cycles)
	}
	return nil
}

// BufferedResult summarizes a buffered-network simulation.
type BufferedResult struct {
	// Config echoes the run parameters.
	Config BufferedConfig
	// ThinkingFraction is the mean fraction of time processors spent
	// thinking (not sending or awaiting delivery).
	ThinkingFraction float64
	// MeanLatency is the mean cycles from first-packet injection to
	// last-packet delivery per transaction.
	MeanLatency float64
	// Completed counts finished transactions.
	Completed uint64
	// MeanQueue is the time-averaged total number of queued packets.
	MeanQueue float64
}

// packet is one word in flight.
type packet struct {
	src, dst int
	last     bool
}

// fifo is a head-indexed packet queue: pops advance head without
// reslicing, and the buffer is reused once drained, so steady-state
// operation does not allocate.
type fifo struct {
	buf  []packet
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

func (q *fifo) push(p packet) {
	if q.head > 0 && q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *fifo) pop() packet {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// bufferedProc is a processor between phases: it thinks until a
// wake-up, then sends `remaining` packets, one per cycle, then awaits
// the last packet's delivery.
type bufferedProc struct {
	dst       int
	remaining int
	started   int
}

// RunBuffered simulates the buffered packet-switched network.
//
// Each cycle, the non-empty link queues forward one packet each, last
// stage first and in ascending link order, and deliveries of a
// transaction's last packet start the sender's thinking (drawing a think
// time); then processors whose thinking ends draw a destination in
// ascending index order, and every sending processor injects one packet
// in ascending index order. Only non-empty queues and active processors
// are visited; thinking cycles are counted as whole intervals when the
// spell starts, and cycles in which nothing is queued or sent are
// skipped.
func RunBuffered(cfg BufferedConfig) (*BufferedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Stages
	nproc := 1 << n
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xda3e39cb94b95bdb))

	var thinkingCycles, completed, latencySum, queuedSum uint64
	measured := cfg.Cycles - cfg.WarmupCycles

	procs := make([]bufferedProc, nproc)
	wakes := make(wakeHeap, 0, nproc)
	// think starts processor i's thinking spell over cycles [from,
	// until) and counts its measured cycles at once.
	think := func(i, from, until int) {
		if until < cfg.Cycles {
			wakes.push(wakeup{until, i})
		}
		if lo, hi := max(from, cfg.WarmupCycles), min(until, cfg.Cycles); lo < hi {
			thinkingCycles += uint64(hi - lo)
		}
	}
	for i := range procs {
		think(i, 0, int(rng.ExpFloat64()*cfg.Think))
	}
	// queues[s][l] is the FIFO of packets waiting to cross link l of
	// stage s, and busy[s] the set of its non-empty queues; queued is
	// the total packet count.
	queues := make([][]fifo, n)
	busy := make([]bitset, n)
	for s := range queues {
		queues[s] = make([]fifo, nproc)
		busy[s] = newBitset(nproc)
	}
	queued := 0
	push := func(s, l int, pk packet) {
		queues[s][l].push(pk)
		busy[s].set(l)
	}
	linkOf := func(stage, src, dst int) int {
		low := n - 1 - stage
		return (dst>>low)<<low | (src & (1<<low - 1))
	}
	sending := newBitset(nproc)

	for now := 0; now < cfg.Cycles; {
		counting := now >= cfg.WarmupCycles
		// Move packets, last stage first so each advances at most one
		// stage per cycle.
		for s := n - 1; s >= 0; s-- {
			busy[s].each(func(l int) {
				q := &queues[s][l]
				pk := q.pop()
				if q.len() == 0 {
					busy[s].clear(l)
				}
				if s < n-1 {
					push(s+1, linkOf(s+1, pk.src, pk.dst), pk)
					return
				}
				// Delivered to memory.
				queued--
				if pk.last {
					think(pk.src, now, now+1+int(rng.ExpFloat64()*cfg.Think))
					if counting {
						completed++
						latencySum += uint64(now + 1 - procs[pk.src].started)
					}
				}
			})
		}
		// Processors wake and inject.
		for wakes.due(now) {
			i := wakes.pop().proc
			procs[i] = bufferedProc{dst: rng.IntN(nproc), remaining: cfg.Packets, started: now}
			sending.set(i)
		}
		sending.each(func(i int) {
			p := &procs[i]
			p.remaining--
			push(0, linkOf(0, i, p.dst), packet{src: i, dst: p.dst, last: p.remaining == 0})
			queued++
			if p.remaining == 0 {
				sending.clear(i) // awaiting delivery
			}
		})
		if counting {
			queuedSum += uint64(queued)
		}
		switch {
		// A sending processor always has a packet queued.
		case queued > 0:
			now++
		case len(wakes) > 0:
			now = wakes[0].at
		default:
			now = cfg.Cycles
		}
	}

	res := &BufferedResult{
		Config:           cfg,
		ThinkingFraction: float64(thinkingCycles) / float64(uint64(measured)*uint64(nproc)),
		Completed:        completed,
		MeanQueue:        float64(queuedSum) / float64(measured),
	}
	if completed > 0 {
		res.MeanLatency = float64(latencySum) / float64(completed)
	}
	if math.IsNaN(res.ThinkingFraction) {
		res.ThinkingFraction = 0
	}
	return res, nil
}
