// Package queueing provides exact solvers for the closed queueing models
// used by the analytical cache-coherence model: Mean Value Analysis (MVA)
// for closed product-form networks, and the Patel fixed-point model for
// unbuffered circuit-switched multistage interconnection networks.
//
// The bus contention model of Owicki & Agarwal is a machine-repairman
// system: N processors (customers) alternate between a think phase of
// Z = c-b cycles and a bus transaction of b cycles at a single FCFS
// server with exponentially distributed service. MVA solves this exactly.
package queueing

import (
	"errors"
	"fmt"
)

// ErrInvalidInput reports a queueing model invoked with parameters outside
// its domain (negative demands, non-positive populations, and so on).
var ErrInvalidInput = errors.New("queueing: invalid input")

// SingleServerResult holds the solution of the single-server closed
// queueing network for one population size.
type SingleServerResult struct {
	// Customers is the population N the metrics refer to.
	Customers int
	// Residence is the mean time a transaction spends at the server,
	// queueing plus service (R in MVA terms), in cycles.
	Residence float64
	// Wait is the mean queueing delay excluding service, in cycles.
	Wait float64
	// Throughput is the system throughput in transactions per cycle.
	Throughput float64
	// QueueLength is the mean number of customers at the server
	// (queued or in service).
	QueueLength float64
	// Utilization is the fraction of time the server is busy.
	Utilization float64
}

// SingleServerMVA solves a closed queueing network with one queueing
// station of mean service demand `service` and a delay (think) station of
// mean `think`, for populations 1..customers. It returns one result per
// population, so callers that sweep processor counts get the whole curve
// from a single O(N) recursion.
//
// This is the bus contention model: think = c-b, service = b.
func SingleServerMVA(think, service float64, customers int) ([]SingleServerResult, error) {
	return ExtendSingleServerMVA(think, service, nil, customers, nil)
}

// checkFCFS validates the FCFS solvers' inputs.
func checkFCFS(think, service float64, customers int) error {
	if customers < 1 {
		return fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if think < 0 || service < 0 {
		return fmt.Errorf("%w: think %g or service %g negative", ErrInvalidInput, think, service)
	}
	return nil
}

// throughput is the MVA throughput at population n whose residence time
// is r: n/(think+r), or 0 for a system with no think or service time.
func throughput(think float64, n int, r float64) float64 {
	if think+r > 0 {
		return float64(n) / (think + r)
	}
	return 0
}

// fcfsStep is the FCFS recursion's one loop body: from the queue length
// q with n-1 customers it returns the residence time and throughput
// with n; the queue length with n is their product. Every FCFS solver
// runs it, so their floats agree bit for bit.
func fcfsStep(think, service float64, n int, q float64) (r, x float64) {
	r = service * (1 + q)
	return r, throughput(think, n, r)
}

// expand is population n's full result from its residence time r and
// throughput x.
func expand(service float64, n int, r, x float64) SingleServerResult {
	return SingleServerResult{
		Customers:   n,
		Residence:   r,
		Wait:        r - service,
		Throughput:  x,
		QueueLength: x * r,
		Utilization: x * service,
	}
}

// ResidenceResult expands population n's residence time r into the full
// result, with the float operations the solvers use: Wait = r-service,
// Throughput = n/(think+r), Utilization = Throughput*service and
// QueueLength = Throughput*r. For an FCFS curve every field equals the
// solver's bit for bit, so a curve stored as its residence times alone
// is an exact encoding. For a priority curve (service = hi+lo) every
// field but QueueLength does; the solver's QueueLength is the per-class
// sum, which the residence time does not determine.
func ResidenceResult(think, service float64, n int, r float64) SingleServerResult {
	return expand(service, n, r, throughput(think, n, r))
}

// ExtendResidence solves the FCFS recursion for the residence times
// R(1..customers), resuming from a prefix R(1..len(prefix)). The
// recursion's only inter-population state is the queue length, which is
// a function of the last residence time, so a resumed solve is
// bit-identical to a full one. The prefix is copied, never written, and
// dst is reused when its capacity allows, as in ExtendSingleServerMVA.
func ExtendResidence(think, service float64, prefix []float64, customers int, dst []float64) ([]float64, error) {
	if err := checkFCFS(think, service, customers); err != nil {
		return nil, err
	}
	if len(prefix) > customers {
		prefix = prefix[:customers]
	}
	var rs []float64
	if cap(dst) >= customers {
		rs = dst[:customers]
	} else {
		rs = make([]float64, customers)
	}
	copy(rs, prefix)
	q := 0.0 // queue length with n-1 customers
	if n := len(prefix); n > 0 {
		q = throughput(think, n, prefix[n-1]) * prefix[n-1]
	}
	for n := len(prefix) + 1; n <= customers; n++ {
		r, x := fcfsStep(think, service, n, q)
		rs[n-1], q = r, x*r
	}
	return rs, nil
}

// ExtendSingleServerMVA resumes the single-server MVA recursion from a
// previously computed prefix: given the solution for populations
// 1..len(prefix), it produces the solution for 1..customers without
// redoing the prefix. It runs ExtendResidence's loop body and expands
// each population as ResidenceResult does, so the two agree bit for bit.
//
// The prefix is copied: callers may pass a slice that other goroutines
// are reading concurrently (e.g. a published cache entry) and the result
// never writes through it. When dst has capacity for customers results
// it is reused as the backing array; otherwise a fresh slice is
// allocated. dst may share prefix's backing array only when both start
// at the same element (in-place growth of a private buffer) — a
// partially overlapping dst would corrupt the prefix copy. A nil prefix
// is a full solve from population 1.
func ExtendSingleServerMVA(think, service float64, prefix []SingleServerResult, customers int, dst []SingleServerResult) ([]SingleServerResult, error) {
	if err := checkFCFS(think, service, customers); err != nil {
		return nil, err
	}
	if len(prefix) > customers {
		prefix = prefix[:customers]
	}
	var results []SingleServerResult
	if cap(dst) >= customers {
		results = dst[:customers]
	} else {
		results = make([]SingleServerResult, customers)
	}
	copy(results, prefix)
	q := 0.0 // queue length with n-1 customers
	if n := len(prefix); n > 0 {
		q = prefix[n-1].QueueLength
	}
	for n := len(prefix) + 1; n <= customers; n++ {
		r, x := fcfsStep(think, service, n, q)
		q = x * r
		results[n-1] = expand(service, n, r, x)
	}
	return results, nil
}

// Station describes one queueing or delay station in a closed network.
type Station struct {
	// Name identifies the station in results.
	Name string
	// Demand is the total mean service demand per customer cycle,
	// i.e. visit ratio times mean service time.
	Demand float64
	// Delay marks a pure delay (infinite-server) station: customers
	// never queue, they just spend Demand time there.
	Delay bool
}

// NetworkResult holds the MVA solution of a multi-station closed network
// at one population.
type NetworkResult struct {
	// Customers is the population N the metrics refer to.
	Customers int
	// Throughput is the system throughput in customers per cycle.
	Throughput float64
	// CycleTime is the mean time for one customer to traverse all
	// stations once (N / Throughput).
	CycleTime float64
	// Residence[i] is the residence time at station i.
	Residence []float64
	// QueueLength[i] is the mean queue length at station i.
	QueueLength []float64
	// Utilization[i] is Demand*Throughput for queueing stations and
	// the mean population for delay stations.
	Utilization []float64
}

// ClosedMVA solves a closed product-form network with the given stations
// for populations 1..customers, returning one result per population.
func ClosedMVA(stations []Station, customers int) ([]NetworkResult, error) {
	if customers < 1 {
		return nil, fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("%w: no stations", ErrInvalidInput)
	}
	for _, s := range stations {
		if s.Demand < 0 {
			return nil, fmt.Errorf("%w: station %q demand %g negative", ErrInvalidInput, s.Name, s.Demand)
		}
	}
	k := len(stations)
	q := make([]float64, k) // queue lengths with n-1 customers
	results := make([]NetworkResult, customers)
	for n := 1; n <= customers; n++ {
		res := NetworkResult{
			Customers:   n,
			Residence:   make([]float64, k),
			QueueLength: make([]float64, k),
			Utilization: make([]float64, k),
		}
		total := 0.0
		for i, s := range stations {
			if s.Delay {
				res.Residence[i] = s.Demand
			} else {
				res.Residence[i] = s.Demand * (1 + q[i])
			}
			total += res.Residence[i]
		}
		var x float64
		if total > 0 {
			x = float64(n) / total
		}
		res.Throughput = x
		res.CycleTime = total
		for i, s := range stations {
			q[i] = x * res.Residence[i]
			res.QueueLength[i] = q[i]
			if s.Delay {
				res.Utilization[i] = q[i]
			} else {
				res.Utilization[i] = x * s.Demand
			}
		}
		results[n-1] = res
	}
	return results, nil
}
