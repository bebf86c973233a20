package queueing

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLoadDependentMatchesConstantRate(t *testing.T) {
	// With rate(k) = 1/service for all k, the system is the plain
	// machine-repairman; compare against SingleServerMVA exactly.
	think, service := 15.0, 4.0
	const n = 10
	constRate := func(int) float64 { return 1 / service }
	mva, err := SingleServerMVA(think, service, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mva {
		ld, err := LoadDependentMVA(context.Background(), think, constRate, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(ld.Throughput, mva[i].Throughput, 1e-9) {
			t.Errorf("n=%d: throughput %g != MVA %g", i+1, ld.Throughput, mva[i].Throughput)
		}
		if !almostEqual(ld.QueueLength, mva[i].QueueLength, 1e-9) {
			t.Errorf("n=%d: queue %g != MVA %g", i+1, ld.QueueLength, mva[i].QueueLength)
		}
	}
}

func TestLoadDependentScalableServerNeverQueues(t *testing.T) {
	// A delay-like server (rate proportional to k) behaves as an
	// infinite server: throughput = n/(think + 1/perCustomerRate).
	think, mu := 10.0, 0.5
	for n := 1; n <= 8; n++ {
		r, err := LoadDependentMVA(context.Background(), think, func(k int) float64 { return mu * float64(k) }, n)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(r.Customers) / (think + 1/mu)
		if !almostEqual(r.Throughput, want, 1e-9) {
			t.Errorf("n=%d: throughput %g, want %g", r.Customers, r.Throughput, want)
		}
	}
}

func TestLoadDependentSaturation(t *testing.T) {
	// Capped rate: throughput can never exceed the cap.
	cap_ := 0.3
	last, err := LoadDependentMVA(context.Background(), 1, func(k int) float64 { return cap_ }, 50)
	if err != nil {
		t.Fatal(err)
	}
	if last.Throughput > cap_+1e-12 {
		t.Errorf("throughput %g exceeds service cap %g", last.Throughput, cap_)
	}
	if last.Throughput < cap_*0.99 {
		t.Errorf("50 customers at think=1 should saturate: %g", last.Throughput)
	}
}

func TestLoadDependentLittleLaw(t *testing.T) {
	f := func(thinkRaw, rateRaw uint8, nRaw uint8) bool {
		think := float64(thinkRaw%100) + 1
		base := float64(rateRaw%50)/100 + 0.01
		n := int(nRaw%12) + 1
		rate := func(k int) float64 { return base * (1 + float64(k)/4) }
		r, err := LoadDependentMVA(context.Background(), think, rate, n)
		if err != nil {
			return false
		}
		// Population conservation: thinkers + queued = n.
		thinkers := r.Throughput * think
		if !almostEqual(thinkers+r.QueueLength, float64(n), 1e-9) {
			return false
		}
		// Little at the server.
		if r.Throughput > 0 && !almostEqual(r.QueueLength, r.Throughput*r.Residence, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadDependentErrors(t *testing.T) {
	ok := func(int) float64 { return 1 }
	if _, err := LoadDependentMVA(context.Background(), 1, ok, 0); err == nil {
		t.Error("want error for zero customers")
	}
	if _, err := LoadDependentMVA(context.Background(), 0, ok, 2); err == nil {
		t.Error("want error for zero think")
	}
	if _, err := LoadDependentMVA(context.Background(), 1, nil, 2); err == nil {
		t.Error("want error for nil rate")
	}
	if _, err := LoadDependentMVA(context.Background(), 1, func(int) float64 { return 0 }, 2); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := LoadDependentMVA(context.Background(), 1, func(int) float64 { return -1 }, 2); err == nil {
		t.Error("want error for negative rate")
	}
}

// TestLoadDependentCallsRateOncePerCustomer pins the solver's cost: one
// population, so one rate(k) call per k, not one per population and k.
func TestLoadDependentCallsRateOncePerCustomer(t *testing.T) {
	const n = 1000
	calls := 0
	rate := func(k int) float64 {
		calls++
		return 1 + float64(k)/n
	}
	if _, err := LoadDependentMVA(context.Background(), 10*n, rate, n); err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("rate called %d times for %d customers, want %d", calls, n, n)
	}
}

// TestLoadDependentRescales checks a population whose unnormalized
// probabilities pass float64's range many times over: the saturated
// server with 2^20 customers, where p[k] = n!/(n-k)!. The solve stays
// finite and exact (saturated throughput is the rate, and the server is
// never empty), calls rate once per customer, and its rescales touch
// each live probability a bounded number of times, not the whole prefix
// each time.
func TestLoadDependentRescales(t *testing.T) {
	const n = 1 << 20
	calls := 0
	rate := func(int) float64 { calls++; return 1 }
	res, touched, err := loadDependentMVA(context.Background(), 1, rate, n)
	if err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("rate called %d times for %d customers, want %d", calls, n, n)
	}
	if res.Throughput != 1 || res.Idle != 0 || !almostEqual(res.QueueLength, n-1, 1e-9) {
		t.Errorf("saturated server: %+v, want throughput 1, idle 0, queue %d", res, n-1)
	}
	// log2(n!) is about 19.5M bits, so about 19.5k rescales. Touching
	// the whole prefix each time would be about 10^10 multiplies.
	if touched > 4*n {
		t.Errorf("rescales touched %d probabilities for %d customers, want at most %d", touched, n, 4*n)
	}
	t.Logf("%d customers: rescales touched %d probabilities", n, touched)
}

// TestLoadDependentRescaleExact checks that a rescale keeps every ratio:
// a population that rescales solves to the same distribution as the
// same chain solved in one pass, within rounding.
func TestLoadDependentRescaleExact(t *testing.T) {
	// think 1e-3 grows p by ~10^3 a step for 400 customers: about
	// 3,900 bits, three or four rescales.
	const n = 400
	rate := func(k int) float64 { return 1 + float64(k)/n }
	res, touched, err := loadDependentMVA(context.Background(), 1e-3, rate, n)
	if err != nil {
		t.Fatal(err)
	}
	if touched == 0 {
		t.Fatal("no rescale happened; pick a steeper chain")
	}
	// Reference: the same chain in log space.
	logp := make([]float64, n+1)
	top := 0.0
	for k := 1; k <= n; k++ {
		logp[k] = logp[k-1] + math.Log(float64(n-k+1)/1e-3/rate(k))
		top = math.Max(top, logp[k])
	}
	var sum, x, q float64
	for k := 0; k <= n; k++ {
		w := math.Exp(logp[k] - top)
		sum += w
		if k > 0 {
			x += w * rate(k)
			q += w * float64(k)
		}
	}
	if !almostEqual(res.Throughput, x/sum, 1e-9) || !almostEqual(res.QueueLength, q/sum, 1e-9) {
		t.Errorf("rescaled solve %+v, log-space reference throughput %g queue %g", res, x/sum, q/sum)
	}
}

// TestLoadDependentStepOutOfRange checks the one case rescaling cannot
// reach, a single step whose ratio lambda/mu passes float64's range: it
// is an input error, not a NaN or infinite throughput.
func TestLoadDependentStepOutOfRange(t *testing.T) {
	_, err := LoadDependentMVA(context.Background(), 1e-300, func(int) float64 { return 1e-300 }, 4)
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("step ratio past float64's range: %v, want ErrInvalidInput", err)
	}
}

// TestLoadDependentMVAStopsWhenCancelled: a solve whose context is
// cancelled mid-way returns context.Canceled within 4,096 more
// populations, not after the remaining million rate calls. The bound is
// a count, so a loaded machine cannot flake it.
func TestLoadDependentMVAStopsWhenCancelled(t *testing.T) {
	const cancelAt, maxCalls = 10_000, 14_096
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	rate := func(k int) float64 {
		calls++
		if k == cancelAt {
			cancel()
		}
		return 1
	}
	_, err := LoadDependentMVA(ctx, 1, rate, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > maxCalls {
		t.Errorf("%d rate calls after cancelling at population %d, want at most %d", calls, cancelAt, maxCalls)
	}
}
