package queueing

import (
	"context"
	"fmt"
	"math"
)

// LoadDependentResult is the solution of a machine-repairman system with
// a load-dependent server for one population.
type LoadDependentResult struct {
	// Customers is the population.
	Customers int
	// Throughput is completions per cycle.
	Throughput float64
	// QueueLength is the mean number of customers at the server.
	QueueLength float64
	// Residence is the mean time at the server per visit (Little).
	Residence float64
	// Idle is the probability the server is empty.
	Idle float64
}

// ctxCheckEvery is how many populations the solve steps between looks
// at its context: a 2^20-customer network solve runs about a second, and
// a look per 4,096 steps costs nothing beside the rate calls.
const ctxCheckEvery = 4096

// rescaleAt bounds the unnormalized probabilities: when their sum would
// pass it, every live one is multiplied by rescaleBy. Both are powers of
// two, so a rescale is exact (short of the subnormal range) and keeps
// every ratio.
const (
	rescaleAt = 0x1p1000
	rescaleBy = 0x1p-1000
)

// LoadDependentMVA solves a closed system of `customers` customers that
// think for mean `think` cycles and then queue at a server whose
// completion rate with k customers present is rate(k) (completions per
// cycle, k >= 1). The solution is the exact birth-death stationary
// distribution: lambda(k) = (n-k)/think, mu(k) = rate(k). It calls
// rate once per k = 1..customers.
//
// The stationary probabilities are formed unnormalized, p[0] = 1. A
// large population whose server is the bottleneck grows them past
// float64's range, so whenever their sum would pass 2^1000 they are all
// scaled by 2^-1000. The leading ones then underflow to 0 and stay 0;
// a low-water index skips them, so each rescale touches only the live
// ones. Only a single step whose ratio lambda/mu itself passes ~2^1000,
// far beyond any rate the network model produces, is out of range: that
// is ErrInvalidInput.
//
// This is the contention model the paper's footnote 2 sketches for
// multistage networks: "the multistage network is represented as a
// load-dependent service center characterised by its service rate at
// various loads."
//
// The solve stops with ctx's error within ctxCheckEvery populations of
// ctx being done.
func LoadDependentMVA(ctx context.Context, think float64, rate func(k int) float64, customers int) (LoadDependentResult, error) {
	res, _, err := loadDependentMVA(ctx, think, rate, customers)
	return res, err
}

// loadDependentMVA is LoadDependentMVA that also reports how many
// probabilities its rescales multiplied in all.
func loadDependentMVA(ctx context.Context, think float64, rate func(k int) float64, customers int) (LoadDependentResult, int, error) {
	if customers < 1 {
		return LoadDependentResult{}, 0, fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if think <= 0 {
		return LoadDependentResult{}, 0, fmt.Errorf("%w: think %g must be positive (instant re-request makes the chain degenerate)", ErrInvalidInput, think)
	}
	if rate == nil {
		return LoadDependentResult{}, 0, fmt.Errorf("%w: nil rate function", ErrInvalidInput)
	}
	n := customers
	// Unnormalized stationary probabilities p[k], k customers at the
	// server, and the rates mu[k] they were formed with. p[:lo] have
	// underflowed to 0.
	p := make([]float64, 1, n+1)
	mu := make([]float64, 1, n+1)
	p[0] = 1
	sum := 1.0
	lo, touched := 0, 0
	for k := 1; k <= n; k++ {
		if k%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return LoadDependentResult{}, touched, err
			}
		}
		m := rate(k)
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return LoadDependentResult{}, touched, fmt.Errorf("%w: rate(%d) = %g", ErrInvalidInput, k, m)
		}
		lambda := float64(n-k+1) / think
		pk := p[k-1] * lambda / m
		if !(sum+pk <= rescaleAt) {
			for i := lo; i < k; i++ {
				p[i] *= rescaleBy
			}
			touched += k - lo
			for lo < k-1 && p[lo] == 0 {
				lo++
			}
			sum *= rescaleBy
			pk = p[k-1] * lambda / m
			if !(sum+pk <= rescaleAt) {
				return LoadDependentResult{}, touched, fmt.Errorf("%w: rate(%d) = %g: one step at arrival rate %g passes float64's range",
					ErrInvalidInput, k, m, lambda)
			}
		}
		sum += pk
		p = append(p, pk)
		mu = append(mu, m)
	}
	var x, q float64
	for k := max(lo, 1); k <= n; k++ {
		prob := p[k] / sum
		x += prob * mu[k]
		q += prob * float64(k)
	}
	res := LoadDependentResult{
		Customers:   n,
		Throughput:  x,
		QueueLength: q,
		Idle:        p[0] / sum,
	}
	if x > 0 {
		res.Residence = q / x
	}
	return res, touched, nil
}
