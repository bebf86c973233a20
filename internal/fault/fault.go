package fault

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrInjected marks an operation that failed because the injector's
// schedule said so, not because the model did. The serving layer maps it
// to a retryable 503 (with a derived Retry-After), never a 500: an
// injected fault simulates a transient backend failure, and clients
// should treat it exactly like overload.
var ErrInjected = errors.New("fault: injected error")

// Config sets an Injector's seeded schedule. Probabilities are per
// operation in [0,1] and are evaluated in order error, panic, latency:
// one uniform draw per operation decides at most one fault, so the
// three probabilities must sum to at most 1.
type Config struct {
	// Seed determines the whole fault schedule. Two injectors with the
	// same Seed and the same probabilities make the same decision at the
	// same operation index, so a failing chaos run can be replayed.
	Seed int64
	// Latency is the delay injected when the schedule picks a latency
	// fault. The sleep is context-aware: a cancelled operation stops
	// sleeping immediately and returns the context's error.
	Latency time.Duration
	// LatencyP is the per-operation probability of injecting Latency.
	LatencyP float64
	// ErrorP is the per-operation probability of returning ErrInjected.
	ErrorP float64
	// PanicP is the per-operation probability of panicking, exercising
	// the serving layer's recover paths. Keep it zero outside tests.
	PanicP float64
}

// Injector injects deterministic faults — latency, errors, panics —
// into a serving path. Decisions come from a splitmix64 stream over
// (seed, operation index), so a given seed always produces the same
// fault schedule regardless of wall clock or goroutine interleaving of
// everything else. A nil *Injector is valid and injects nothing, so
// call sites need no guards.
type Injector struct {
	cfg Config
	seq atomic.Uint64

	latencies atomic.Uint64
	errors    atomic.Uint64
	panics    atomic.Uint64
}

// New returns an injector following cfg's schedule. It panics if any
// probability is outside [0,1] (NaN included) or the probabilities sum
// past 1 — schedules are operator input, and a silently clamped schedule
// would make a chaos run lie about what it tested.
func New(cfg Config) *Injector {
	for _, p := range []float64{cfg.LatencyP, cfg.ErrorP, cfg.PanicP} {
		if !(p >= 0 && p <= 1) {
			panic("fault: probability outside [0,1]")
		}
	}
	if !(cfg.LatencyP+cfg.ErrorP+cfg.PanicP <= 1) {
		panic("fault: probabilities sum past 1")
	}
	return &Injector{cfg: cfg}
}

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche
// over uint64, so consecutive inputs yield statistically independent
// outputs. It is the same mixer cohereload uses to derive per-worker
// RNG seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a uint64 to [0,1) using the top 53 bits, the float64
// mantissa width.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Point runs the fault decision for the next operation in the schedule:
// it returns ErrInjected, panics, sleeps the configured latency
// (context-aware — a cancelled ctx cuts the sleep short and its error
// is returned), or does nothing, per the seeded schedule. Safe for
// concurrent use; a nil receiver does nothing.
func (in *Injector) Point(ctx context.Context) error {
	if in == nil {
		return nil
	}
	n := in.seq.Add(1)
	u := unit(splitmix64(uint64(in.cfg.Seed) ^ splitmix64(n)))
	switch {
	case u < in.cfg.ErrorP:
		in.errors.Add(1)
		return ErrInjected
	case u < in.cfg.ErrorP+in.cfg.PanicP:
		in.panics.Add(1)
		panic("fault: injected panic")
	case u < in.cfg.ErrorP+in.cfg.PanicP+in.cfg.LatencyP:
		in.latencies.Add(1)
		t := time.NewTimer(in.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Counts reports how many of each fault kind the injector has fired:
// injected latencies (including sleeps cut short by cancellation),
// injected errors, and injected panics.
func (in *Injector) Counts() (latencies, errs, panics uint64) {
	if in == nil {
		return 0, 0, 0
	}
	return in.latencies.Load(), in.errors.Load(), in.panics.Load()
}
