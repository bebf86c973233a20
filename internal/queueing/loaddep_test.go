package queueing

import (
	"errors"
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
		ld, err := LoadDependentMVA(think, constRate, i+1)
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
		r, err := LoadDependentMVA(think, func(k int) float64 { return mu * float64(k) }, n)
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
	last, err := LoadDependentMVA(1, func(k int) float64 { return cap_ }, 50)
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
		r, err := LoadDependentMVA(think, rate, n)
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
	if _, err := LoadDependentMVA(1, ok, 0); err == nil {
		t.Error("want error for zero customers")
	}
	if _, err := LoadDependentMVA(0, ok, 2); err == nil {
		t.Error("want error for zero think")
	}
	if _, err := LoadDependentMVA(1, nil, 2); err == nil {
		t.Error("want error for nil rate")
	}
	if _, err := LoadDependentMVA(1, func(int) float64 { return 0 }, 2); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := LoadDependentMVA(1, func(int) float64 { return -1 }, 2); err == nil {
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
	if _, err := LoadDependentMVA(10*n, rate, n); err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("rate called %d times for %d customers, want %d", calls, n, n)
	}
}

// TestLoadDependentOverflow checks that a population whose unnormalized
// probabilities pass float64's range is ErrOverflow, found as soon as
// they do, rather than a NaN throughput.
func TestLoadDependentOverflow(t *testing.T) {
	const n = 1 << 20
	calls := 0
	rate := func(int) float64 { calls++; return 1 }
	_, err := LoadDependentMVA(1, rate, n)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("%d customers at a saturated server: %v, want ErrOverflow", n, err)
	}
	// p[k] = n!/(n-k)!, so float64 overflows within a few hundred k.
	if calls > 1000 {
		t.Errorf("overflow found after %d rate calls, want it within the first 1000", calls)
	}
}
