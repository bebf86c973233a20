package core

import (
	"fmt"

	"swcc/internal/queueing"
)

// NetworkPoint is the model's prediction for one machine size on an
// unbuffered circuit-switched multistage interconnection network.
type NetworkPoint struct {
	// Processors is the machine size (2^Stages).
	Processors int
	// Stages is the number of 2x2 switch stages.
	Stages int
	// CPU is c under the network cost table for this size.
	CPU float64
	// Net is b, the mean network cycles per instruction.
	Net float64
	// PatelU is the raw Patel utilization m_n/(m*t): the fraction of
	// time the processor is not blocked at its network port.
	PatelU float64
	// Utilization is the bus-comparable processor utilization: one
	// productive cycle per instruction over the instruction's total
	// elapsed time, i.e. PatelU/(c-b). In the uncontended limit this
	// equals 1/c, matching the bus metric with w = 0.
	Utilization float64
	// Power is Processors * Utilization.
	Power float64
	// Acceptance is the per-attempt probability an offered unit request
	// traverses all stages.
	Acceptance float64
}

// rejectPriorityOnNetwork fails schemes that demand a priority bus
// service discipline: the network contention models (Patel retry, MVA
// load-dependent, buffered packet) have no two-class counterpart, and
// silently falling back to FCFS would misreport the discipline the
// caller asked for.
func rejectPriorityOnNetwork(s Scheme) error {
	if _, ok := s.(PrioritySplitter); ok {
		return fmt.Errorf("%w: %s needs a priority bus service discipline, which the network model does not provide", ErrUnsupported, s.Name())
	}
	return nil
}

// EvaluateNetworkAt runs the network model for one machine size given by
// its stage count (2^stages processors). Costs are taken from
// NetworkCosts(stages); schemes that need bus-only operations (Dragon)
// or a priority bus discipline fail with ErrUnsupported.
func EvaluateNetworkAt(s Scheme, p Params, stages int) (NetworkPoint, error) {
	if stages < 1 {
		return NetworkPoint{}, fmt.Errorf("core: stages %d < 1", stages)
	}
	if err := rejectPriorityOnNetwork(s); err != nil {
		return NetworkPoint{}, err
	}
	costs := NetworkCosts(stages)
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return NetworkPoint{}, err
	}
	pn := queueing.NewPatelNetwork(stages)
	think := d.Think()
	var rate float64
	if think > 0 {
		rate = 1 / think
	}
	res, err := pn.SolvePatel(rate, d.Interconnect)
	if err != nil {
		return NetworkPoint{}, err
	}
	// Bus-comparable utilization: the Patel U is (c-b)/T where T is the
	// instruction's total elapsed time, so 1/T = U/(c-b). When b = 0
	// the network is untouched and T = c.
	var util float64
	if d.Interconnect == 0 || think <= 0 {
		util = 1 / d.CPU
	} else {
		util = res.Utilization / think
	}
	nproc := pn.Processors()
	return NetworkPoint{
		Processors:  nproc,
		Stages:      stages,
		CPU:         d.CPU,
		Net:         d.Interconnect,
		PatelU:      res.Utilization,
		Utilization: util,
		Power:       float64(nproc) * util,
		Acceptance:  res.Acceptance,
	}, nil
}

// EvaluateNetwork sweeps machine sizes 2^1 .. 2^maxStages and returns one
// point per size.
func EvaluateNetwork(s Scheme, p Params, maxStages int) ([]NetworkPoint, error) {
	if maxStages < 1 {
		return nil, fmt.Errorf("core: maxStages %d < 1", maxStages)
	}
	points := make([]NetworkPoint, 0, maxStages)
	for n := 1; n <= maxStages; n++ {
		pt, err := EvaluateNetworkAt(s, p, n)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// NetworkUtilization reproduces the generic curves of paper Figure 11: the
// raw Patel processor utilization for a machine with the given stage
// count, a transaction rate of `rate` transactions per cycle, and a
// message of `msgWords` words (the network occupancy per transaction is
// msgWords + 2*stages for circuit set-up and the return path).
func NetworkUtilization(stages int, rate, msgWords float64) (float64, error) {
	pn := queueing.NewPatelNetwork(stages)
	res, err := pn.SolvePatel(rate, msgWords+2*float64(stages))
	if err != nil {
		return 0, err
	}
	return res.Utilization, nil
}

// NetworkWorkloadPoint locates a scheme/level combination on the Figure 11
// axes. The queueing fixed point only depends on the product m*t, so the
// aggregate per-instruction demand (rate 1/(c-b), size b) is decomposed
// into per-transaction terms for plotting: rate = transactions per think
// cycle, msgWords = mean words per transaction net of the 2n path-setup
// overhead. Returns that rate, message size, and the raw Patel processor
// utilization for the 2^stages-processor machine.
func NetworkWorkloadPoint(s Scheme, l Level, stages int) (rate, msgWords, utilization float64, err error) {
	if err := rejectPriorityOnNetwork(s); err != nil {
		return 0, 0, 0, err
	}
	p := ParamsAt(l)
	costs := NetworkCosts(stages)
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return 0, 0, 0, err
	}
	freqs, err := s.Frequencies(p)
	if err != nil {
		return 0, 0, 0, err
	}
	var transactions float64
	for _, f := range freqs.List() {
		if costs.Cost(f.Op).Interconnect > 0 {
			transactions += f.Freq
		}
	}
	think := d.Think()
	if think > 0 && transactions > 0 {
		rate = transactions / think
		msgWords = d.Interconnect/transactions - 2*float64(stages)
		if msgWords < 0 {
			msgWords = 0
		}
	}
	res, err := queueing.NewPatelNetwork(stages).SolvePatel(rate, msgWords+2*float64(stages))
	if err != nil {
		return 0, 0, 0, err
	}
	return rate, msgWords, res.Utilization, nil
}

// EvaluatePacketNetwork is an EXTENSION (paper Section 7 future work):
// the same workload on a buffered packet-switched network, where messages
// pay pipeline transit and queueing but no circuit set-up. It returns the
// bus-comparable utilization and power for a 2^stages-processor machine.
func EvaluatePacketNetwork(s Scheme, p Params, stages int) (NetworkPoint, error) {
	if stages < 1 {
		return NetworkPoint{}, fmt.Errorf("core: stages %d < 1", stages)
	}
	if err := rejectPriorityOnNetwork(s); err != nil {
		return NetworkPoint{}, err
	}
	costs := NetworkCosts(stages)
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		return NetworkPoint{}, err
	}
	// Message size net of the 2n circuit overhead: the words actually
	// transferred.
	msg := d.Interconnect - 2*float64(stages)
	if msg < 0 {
		msg = 0
	}
	think := d.Think()
	var rate float64
	if think > 0 {
		rate = 1 / think
	}
	bn := queueing.BufferedNetwork{Stages: stages}
	res, err := bn.SolveBuffered(d.CPU, rate, msg)
	if err != nil {
		return NetworkPoint{}, err
	}
	nproc := queueing.NewPatelNetwork(stages).Processors()
	return NetworkPoint{
		Processors:  nproc,
		Stages:      stages,
		CPU:         d.CPU,
		Net:         msg,
		PatelU:      res.PortLoad,
		Utilization: res.Utilization,
		Power:       float64(nproc) * res.Utilization,
		Acceptance:  1,
	}, nil
}
