package queueing

import (
	"errors"
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

// ErrOverflow reports a population too large for the load-dependent
// solution's float64 arithmetic.
var ErrOverflow = errors.New("queueing: float64 overflow")

// LoadDependentMVA solves a closed system of `customers` customers that
// think for mean `think` cycles and then queue at a server whose
// completion rate with k customers present is rate(k) (completions per
// cycle, k >= 1). The solution is the exact birth-death stationary
// distribution: lambda(k) = (n-k)/think, mu(k) = rate(k). It calls
// rate once per k = 1..customers.
//
// The stationary probabilities are formed unnormalized, p[0] = 1, so a
// large population whose server is the bottleneck overflows float64;
// that is ErrOverflow, reported as soon as a p[k] or their sum does.
//
// This is the contention model the paper's footnote 2 sketches for
// multistage networks: "the multistage network is represented as a
// load-dependent service center characterised by its service rate at
// various loads."
func LoadDependentMVA(think float64, rate func(k int) float64, customers int) (LoadDependentResult, error) {
	if customers < 1 {
		return LoadDependentResult{}, fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if think <= 0 {
		return LoadDependentResult{}, fmt.Errorf("%w: think %g must be positive (instant re-request makes the chain degenerate)", ErrInvalidInput, think)
	}
	if rate == nil {
		return LoadDependentResult{}, fmt.Errorf("%w: nil rate function", ErrInvalidInput)
	}
	n := customers
	// Unnormalized stationary probabilities p[k], k customers at the
	// server, and the rates mu[k] they were formed with. Both grow as
	// they go, so an overflow early in a large population allocates
	// little.
	p := []float64{1}
	mu := []float64{0}
	sum := 1.0
	for k := 1; k <= n; k++ {
		m := rate(k)
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return LoadDependentResult{}, fmt.Errorf("%w: rate(%d) = %g", ErrInvalidInput, k, m)
		}
		lambda := float64(n-k+1) / think
		pk := p[k-1] * lambda / m
		sum += pk
		if math.IsInf(sum, 0) {
			return LoadDependentResult{}, fmt.Errorf("%w: %d customers: the unnormalized probabilities pass %g at %d at the server",
				ErrOverflow, n, math.MaxFloat64, k)
		}
		p = append(p, pk)
		mu = append(mu, m)
	}
	var x, q float64
	for k := 1; k <= n; k++ {
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
	return res, nil
}
