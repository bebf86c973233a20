package fault

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// schedule runs n Points through a fresh injector with cfg and returns
// the outcome sequence as a string of 'e' (error), 'l' (latency), and
// '.' (no fault), recovering 'p' for panics.
func schedule(cfg Config, n int) string {
	in := New(cfg)
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = func() (c byte) {
			defer func() {
				if recover() != nil {
					c = 'p'
				}
			}()
			err := in.Point(context.Background())
			switch {
			case errors.Is(err, ErrInjected):
				return 'e'
			case err != nil:
				return '?'
			}
			return '.'
		}()
	}
	return string(out)
}

// TestScheduleDeterministic pins the harness's core promise: the same
// seed and probabilities produce the same fault sequence, and a
// different seed produces a different one.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, ErrorP: 0.2, PanicP: 0.1, LatencyP: 0.3}
	a := schedule(cfg, 256)
	b := schedule(cfg, 256)
	if a != b {
		t.Errorf("same seed, different schedules:\n%s\n%s", a, b)
	}
	cfg.Seed = 8
	if c := schedule(cfg, 256); c == a {
		t.Error("different seeds produced identical 256-op schedules")
	}
}

// TestScheduleMixesAllKinds checks every configured fault kind actually
// fires over a modest window and the counters account for it.
func TestScheduleMixesAllKinds(t *testing.T) {
	cfg := Config{Seed: 1, ErrorP: 0.25, PanicP: 0.25, LatencyP: 0.25}
	in := New(cfg)
	var errs, panics, clean int
	for i := 0; i < 400; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			switch err := in.Point(context.Background()); {
			case errors.Is(err, ErrInjected):
				errs++
			case err == nil:
				clean++
			default:
				t.Fatalf("unexpected error kind: %v", err)
			}
		}()
	}
	lat, e, p := in.Counts()
	if errs == 0 || panics == 0 || lat == 0 || clean == 0 {
		t.Errorf("a fault kind never fired: errs=%d panics=%d latencies=%d clean=%d", errs, panics, lat, clean)
	}
	if uint64(errs) != e || uint64(panics) != p {
		t.Errorf("counters disagree with outcomes: errs %d vs %d, panics %d vs %d", errs, e, panics, p)
	}
}

// TestLatencyHonorsCancellation checks an injected sleep is cut short by
// context cancellation and surfaces the context's error — the property
// that lets a cancelled request escape injected latency promptly.
func TestLatencyHonorsCancellation(t *testing.T) {
	in := New(Config{Seed: 1, LatencyP: 1, Latency: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := in.Point(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled injected sleep returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled sleep still took %v", elapsed)
	}
}

// TestNilInjectorInjectsNothing pins the nil-receiver contract call
// sites rely on.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if err := in.Point(context.Background()); err != nil {
		t.Errorf("nil injector returned %v", err)
	}
	if l, e, p := in.Counts(); l+e+p != 0 {
		t.Errorf("nil injector has counts %d/%d/%d", l, e, p)
	}
}

// TestBadConfigPanics checks malformed schedules are rejected loudly at
// construction instead of silently clamped.
func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{ErrorP: -0.1},
		{LatencyP: 1.5},
		{ErrorP: 0.6, PanicP: 0.6},
		{ErrorP: math.NaN()},
		{LatencyP: 0.5, PanicP: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
