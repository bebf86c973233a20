package core

import (
	"fmt"

	"swcc/internal/queueing"
)

// BusPoint is the model's prediction for one processor count on a shared
// bus.
type BusPoint struct {
	// Processors is the machine size n.
	Processors int
	// CPU is c, the mean CPU cycles per instruction without contention.
	CPU float64
	// Bus is b, the mean bus cycles per instruction.
	Bus float64
	// Wait is w, the mean contention cycles per instruction.
	Wait float64
	// Utilization is U = 1/(c+w), the fraction of time in productive
	// (1-cycle-per-instruction) computation.
	Utilization float64
	// Power is n*U, the machine's processing power in equivalent fully
	// utilized processors.
	Power float64
	// BusUtilization is the fraction of time the bus is busy.
	BusUtilization float64
}

// EvaluateBus runs the bus model for populations 1..maxProcs and returns
// one point per machine size. The contention model is the closed
// single-server queueing network of Section 2.3: transactions of mean
// service b arrive once every c-b cycles per processor.
func EvaluateBus(s Scheme, p Params, costs *CostTable, maxProcs int) ([]BusPoint, error) {
	if maxProcs < 1 {
		return nil, fmt.Errorf("core: maxProcs %d < 1", maxProcs)
	}
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return nil, err
	}
	var mva []queueing.SingleServerResult
	if d.Priority > 0 {
		hi, lo := d.PrioritySplit()
		mva, err = queueing.PrioritySingleServerMVA(d.Think(), hi, lo, maxProcs, nil)
	} else {
		mva, err = queueing.SingleServerMVA(d.Think(), d.Interconnect, maxProcs)
	}
	if err != nil {
		return nil, err
	}
	points := make([]BusPoint, maxProcs)
	for i, r := range mva {
		points[i] = BusPointFromMVA(d, r)
	}
	return points, nil
}

// BusPointFromMVA converts one MVA population result for demand d into a
// BusPoint. EvaluateBus is ComputeDemand + SingleServerMVA + this; cached
// evaluators (internal/sweep) reuse it so their results are bit-identical
// to a fresh solve.
func BusPointFromMVA(d Demand, r queueing.SingleServerResult) BusPoint {
	u := 1 / (d.CPU + r.Wait)
	return BusPoint{
		Processors:     r.Customers,
		CPU:            d.CPU,
		Bus:            d.Interconnect,
		Wait:           r.Wait,
		Utilization:    u,
		Power:          float64(r.Customers) * u,
		BusUtilization: r.Utilization,
	}
}

// BusResidence solves the bus contention model's residence times
// R(1..n) for demand d, reusing dst when its capacity allows. An FCFS
// solve resumes from prefix, the curve's residence times for
// 1..len(prefix); a priority solve cannot resume and ignores it.
// BusPointFromResidence turns each R back into EvaluateBus's point, bit
// for bit, so a curve cached as R alone answers every query exactly.
func BusResidence(d Demand, prefix []float64, n int, dst []float64) ([]float64, error) {
	if d.Priority > 0 {
		hi, lo := d.PrioritySplit()
		return queueing.PriorityResidence(d.Think(), hi, lo, n, dst)
	}
	return queueing.ExtendResidence(d.Think(), d.Interconnect, prefix, n, dst)
}

// BusPointFromResidence is the bus point at population n whose
// residence time is r. It expands r with the service demand the solver
// ran with: Interconnect for FCFS, hi+lo for the priority discipline
// (the two can differ in the last bit).
func BusPointFromResidence(d Demand, n int, r float64) BusPoint {
	service := d.Interconnect
	if d.Priority > 0 {
		hi, lo := d.PrioritySplit()
		service = hi + lo
	}
	return BusPointFromMVA(d, queueing.ResidenceResult(d.Think(), service, n, r))
}

// BusPower is a convenience wrapper returning only the processing power at
// exactly nproc processors.
func BusPower(s Scheme, p Params, costs *CostTable, nproc int) (float64, error) {
	pts, err := EvaluateBus(s, p, costs, nproc)
	if err != nil {
		return 0, err
	}
	return pts[nproc-1].Power, nil
}

// SaturationPower returns the asymptotic processing power of a scheme on
// the bus: when the bus saturates, the machine completes one transaction
// per b cycles, i.e. 1/b instructions per cycle, regardless of n.
func SaturationPower(s Scheme, p Params, costs *CostTable) (float64, error) {
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return 0, err
	}
	if d.Interconnect == 0 {
		return 0, nil // never saturates; power grows without bound
	}
	return 1 / d.Interconnect, nil
}
