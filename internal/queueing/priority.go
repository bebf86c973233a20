package queueing

import "fmt"

// PrioritySingleServerMVA solves the machine-repairman model with a
// two-class priority (head-of-line, non-preemptive approximation) server
// instead of FCFS, for populations 1..customers: each transaction a
// customer issues is a high-priority service of mean `hi` followed by
// (conceptually, split from) a low-priority service of mean `lo`, with
// hi+lo equal to the FCFS model's service demand. The high class is
// served ahead of queued low-class work; the low class sees a server
// slowed by high-class utilization (the standard MVA shadow-server
// approximation for priority scheduling: Bryant et al., and the
// FCFS-versus-priority bus studies the PriorityBus scheme follows).
//
// Degenerate classes reduce the recurrence to the FCFS one bit-exactly:
// with hi = 0 the high class contributes nothing and the shadow factor
// is 1-0, so lo behaves exactly like FCFS service; with lo = 0 only the
// high class remains, which queues like FCFS. Callers may therefore
// dispatch on "any high-priority demand?" without worrying about a seam
// at the boundary.
//
// Results have the same shape as the FCFS solver: Residence and Wait
// cover both classes of one transaction, Utilization is total server
// busy fraction. Unlike the FCFS recursion, the inter-population state
// is per-class, so cached FCFS curves cannot be extended into priority
// ones — use a full solve. When dst has capacity for customers results
// it is reused as the backing array.
func PrioritySingleServerMVA(think, hi, lo float64, customers int, dst []SingleServerResult) ([]SingleServerResult, error) {
	if err := checkPriority(think, hi, lo, customers); err != nil {
		return nil, err
	}
	var results []SingleServerResult
	if cap(dst) >= customers {
		results = dst[:customers]
	} else {
		results = make([]SingleServerResult, customers)
	}
	var st prioState
	for n := 1; n <= customers; n++ {
		var r, x float64
		st, r, x = st.step(think, hi, lo, n)
		results[n-1] = expand(hi+lo, n, r, x)
		results[n-1].QueueLength = st.qh + st.ql
	}
	return results, nil
}

// PriorityResidence solves the priority recursion for the residence
// times R(1..customers) alone, through the same step as
// PrioritySingleServerMVA: ResidenceResult(think, hi+lo, n, R(n))
// reproduces every field of that solver's result but QueueLength. dst
// is reused when its capacity allows. There is no resume: the
// inter-population state is per-class, and R does not determine it.
func PriorityResidence(think, hi, lo float64, customers int, dst []float64) ([]float64, error) {
	if err := checkPriority(think, hi, lo, customers); err != nil {
		return nil, err
	}
	var rs []float64
	if cap(dst) >= customers {
		rs = dst[:customers]
	} else {
		rs = make([]float64, customers)
	}
	var st prioState
	for n := 1; n <= customers; n++ {
		st, rs[n-1], _ = st.step(think, hi, lo, n)
	}
	return rs, nil
}

// checkPriority validates the priority solvers' inputs.
func checkPriority(think, hi, lo float64, customers int) error {
	if customers < 1 {
		return fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if think < 0 || hi < 0 || lo < 0 {
		return fmt.Errorf("%w: think %g, high %g, or low %g negative", ErrInvalidInput, think, hi, lo)
	}
	return nil
}

// prioState is the priority recursion's inter-population state: the
// per-class queue lengths and the high-class utilization with n-1
// customers.
type prioState struct {
	qh, ql, uh float64
}

// step is the priority recursion's one loop body: it returns the state
// with n customers and the residence time and throughput there. The
// state travels by value, in registers, not through memory.
func (st prioState) step(think, hi, lo float64, n int) (next prioState, r, x float64) {
	rh := hi * (1 + st.qh)
	var rl float64
	if lo > 0 {
		den := 1 - st.uh
		if den < 1e-12 {
			den = 1e-12
		}
		rl = lo * (1 + st.ql) / den
	}
	r = rh + rl
	x = throughput(think, n, r)
	return prioState{qh: x * rh, ql: x * rl, uh: x * hi}, r, x
}
