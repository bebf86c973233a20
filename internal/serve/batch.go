package serve

import (
	"context"
	"errors"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

// --- /v1/sweep ---

// A /v1/sweep body, {"points": [...]}, is a batch of bus-model queries:
// a grid of (scheme, workload, procs) points answered in one round trip
// instead of one /v1/bus call each. Each point accepts exactly the
// /v1/bus request fields (DecodeSweep) and produces exactly the /v1/bus
// response for that point, so a client can swap N sequential calls for
// one batch without changing how it reads results.

type sweepResponse struct {
	Count   int           `json:"count"`
	Results []busResponse `json:"results"`
	// release returns the response's pooled buffers (Results and every
	// Points slice inside it). writeJSON calls it through the
	// bufferReleaser hook once the response bytes are encoded; error
	// paths call it directly. Nil when nothing is pooled.
	release func() `json:"-"`
}

// ReleaseBuffers implements bufferReleaser.
func (r sweepResponse) ReleaseBuffers() {
	if r.release != nil {
		r.release()
	}
}

// sweepJob is one validated point, ready to solve.
type sweepJob struct {
	scheme core.Scheme
	params core.Params
	procs  int
	point  bool
}

// responsePool recycles per-batch result slices across /v1/sweep
// requests; the per-point Points buffers come from sweep.AcquirePoints.
var responsePool sweep.SlicePool[busResponse]

// pointErr prefixes a per-point validation error with its index so the
// client knows which grid cell to fix, preserving the status code.
func pointErr(i int, err error) error {
	var he *httpError
	if errors.As(err, &he) {
		return &httpError{code: he.code, msg: fmt.Sprintf("points[%d]: %s", i, he.msg)}
	}
	return fmt.Errorf("points[%d]: %w", i, err)
}

// handleSweep validates every point up front (the whole batch is
// rejected 400 if any cell is malformed — same strictness as /v1/bus,
// with the failing index named), then fans the grid out across the
// evaluator on all cores. The batch occupies one concurrency-limiter
// slot: MaxInFlight keeps bounding admitted requests, while the
// intra-batch parallelism uses the worker pool. Results come back in
// caller order, each bit-identical to the equivalent /v1/bus response.
func (s *Server) handleSweep(ctx context.Context, body []byte) (any, error) {
	points, _, err := DecodeSweep(body)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, badRequest(`"points" must be a non-empty array`)
	}
	if len(points) > s.cfg.MaxBatchPoints {
		return nil, badRequest("batch of %d points exceeds the %d-point cap",
			len(points), s.cfg.MaxBatchPoints)
	}
	jobs := make([]sweepJob, len(points))
	for i, pt := range points {
		if pt.Err != nil {
			return nil, pointErr(i, pt.Err)
		}
		procs, err := s.checkProcs(pt.Query.Procs)
		if err != nil {
			return nil, pointErr(i, err)
		}
		jobs[i] = sweepJob{scheme: pt.Query.Scheme, params: pt.Query.Params, procs: procs, point: pt.Query.Point}
	}
	costs := s.costs
	return s.solve(ctx, func() (any, error) {
		// Points sharing one (scheme, canonical workload) form a group a
		// single worker solves population-ascending through a CurveRun —
		// each point resumes the MVA recursion where the previous one
		// stopped. Result and per-point Points buffers come from pools;
		// the response's release hook returns them after encoding.
		groups := sweep.BatchGroups(len(jobs), func(i int) (core.Scheme, core.Params, int) {
			return jobs[i].scheme, jobs[i].params, jobs[i].procs
		})
		resultsBuf := responsePool.Acquire(len(jobs))
		results := *resultsBuf
		pointBufs := make([]*[]core.BusPoint, len(jobs))
		release := func() {
			for _, pb := range pointBufs {
				if pb != nil {
					sweep.ReleasePoints(pb)
				}
			}
			responsePool.Release(resultsBuf)
		}
		errs := make([]error, len(jobs))
		sweep.EachCtx(ctx, 0, len(groups), func(g int) error {
			var run *sweep.CurveRun
			for _, i := range groups[g] {
				s.solveSweepPoint(ctx, jobs[i], costs, &run, &results[i], &pointBufs[i], &errs[i])
			}
			if run != nil {
				run.Finish(ctx)
			}
			return nil
		})
		if err := sweepError(ctx, errs); err != nil {
			release()
			return nil, err
		}
		return sweepResponse{Count: len(results), Results: results, release: release}, nil
	})
}

// solveSweepPoint answers one grid cell of a batch into *out, reusing
// (or starting) the group's CurveRun. Each point remains its own
// fault-injection site and cancellation point, and the pool's worker
// goroutines have no recover of their own — an injected (or model)
// panic here must become this point's error, not kill the process.
func (s *Server) solveSweepPoint(ctx context.Context, j sweepJob, costs *core.CostTable, run **sweep.CurveRun, out *busResponse, pointBuf **[]core.BusPoint, errOut *error) {
	defer func() {
		if p := recover(); p != nil {
			*errOut = fmt.Errorf("serve: internal error: %v", p)
		}
	}()
	if err := ctx.Err(); err != nil {
		*errOut = err
		return
	}
	if err := s.cfg.Fault.Point(ctx); err != nil {
		*errOut = err
		return
	}
	if *run == nil {
		r, err := s.ev.StartCurveRun(ctx, j.scheme, j.params, costs)
		if err != nil {
			*errOut = err
			return
		}
		*run = r
	}
	resp := busResponse{Scheme: schemeLabel(j.scheme), Costs: costs.Name, Procs: j.procs}
	if j.point {
		pt, err := (*run).BusPointAt(ctx, j.procs)
		if err != nil {
			*errOut = err
			return
		}
		buf := sweep.AcquirePoints(1)
		*pointBuf = buf
		(*buf)[0] = pt
		resp.Points = *buf
	} else {
		// Park the buffer in *pointBuf BEFORE the call that can panic: the
		// recover above only records the error, so a buffer not yet visible
		// through pointBufs would never reach the batch's release hook and
		// each fault-injected panic would drain the pool by one buffer.
		buf := sweep.AcquirePoints(j.procs)
		*pointBuf = buf
		pts, err := (*run).BusPointsInto(ctx, j.procs, *buf)
		if err != nil {
			*errOut = err
			return
		}
		resp.Points = pts
	}
	*out = resp
}

// sweepError maps a finished batch's per-point errors to the one error
// the response reports. A done context wins outright and is returned
// bare: a batch abandoned mid-flight is a timeout (504) or disconnect
// of the whole request, and naming whichever point happened to observe
// the cancellation first ("points[17]: context deadline exceeded")
// would misreport a request-level condition as a data error — the bug
// this helper exists to fix. Only with the context still live is the
// lowest-index point error returned, index-prefixed, as before.
func sweepError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return err
			}
			return pointErr(i, err)
		}
	}
	return nil
}
