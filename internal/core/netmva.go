package core

import (
	"context"
	"fmt"

	"swcc/internal/queueing"
)

// EvaluateNetworkMVA is the alternative network contention model the
// paper's footnote 2 sketches: instead of Patel's retry fixed point, the
// multistage network is represented as a load-dependent service center
// inside a closed queueing network.
//
// Each processor alternates between thinking for (c-b)/b cycles per unit
// request and queueing one unit request at the network. With k requests
// outstanding across N input ports, the network's aggregate completion
// rate is N * Forward(k/N) unit requests per cycle (the same per-stage
// blocking function as the Patel model). The two models agree in the
// uncontended limit and share the saturation bandwidth N*Forward(1); in
// between, the MVA variant queues blocked requests instead of retrying
// them, so it is mildly more optimistic.
//
// Every network size solves: the load-dependent solution rescales its
// unnormalized probabilities instead of overflowing float64. The solve
// is linear in the processor count, so 20 stages (2^20 processors)
// hold two 2^20-entry slices, about 16 MB, for about a second; the solve
// stops with ctx's error within a few thousand populations of ctx being
// done.
func EvaluateNetworkMVA(ctx context.Context, s Scheme, p Params, stages int) (NetworkPoint, error) {
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
	nproc := pn.Processors()
	pt := NetworkPoint{
		Processors: nproc,
		Stages:     stages,
		CPU:        d.CPU,
		Net:        d.Interconnect,
		Acceptance: 1,
	}
	if d.Interconnect == 0 {
		pt.PatelU = 1
		pt.Utilization = 1 / d.CPU
		pt.Power = float64(nproc) * pt.Utilization
		return pt, nil
	}
	// Per unit request: think (c-b)/b cycles.
	think := d.Think() / d.Interconnect
	if think <= 0 {
		// The workload is pure network traffic; the processor is
		// always blocked and power is bandwidth-bound.
		satU := pn.Forward(1) / d.Interconnect
		pt.Utilization = satU
		pt.Power = float64(nproc) * satU
		return pt, nil
	}
	rate := func(k int) float64 {
		m := float64(k) / float64(nproc)
		if m > 1 {
			m = 1
		}
		return float64(nproc) * pn.Forward(m)
	}
	res, err := queueing.LoadDependentMVA(ctx, think, rate, nproc)
	if err != nil {
		return NetworkPoint{}, err
	}
	// res.Throughput is unit requests per cycle machine-wide; each
	// instruction consumes b unit requests, so the machine executes
	// X/b instructions per cycle = its processing power.
	pt.Power = res.Throughput / d.Interconnect
	pt.Utilization = pt.Power / float64(nproc)
	pt.PatelU = 1 - res.QueueLength/float64(nproc)
	return pt, nil
}
