package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"swcc/internal/core"
	"swcc/internal/jobs"
	"swcc/internal/sweep"
)

// --- /v1/jobs ---
//
// Async sweep jobs decouple big grids from the request/response cycle:
// POST /v1/jobs/sweep registers the work and returns immediately with a
// job ID; the job solves in the background (bounded by its own solver
// semaphore, not the interactive limiter) and spools encoded result
// rows; GET /v1/jobs/{id}/results streams them back as NDJSON in
// completion order, resumable by cursor after a dropped connection.
// The spool is bounded: a reader that falls behind blocks the producer
// (back-pressure) instead of buffering a 100k-point grid in memory.

// jobSubmitRequest describes one async sweep compactly — a cross
// product of schemes x axis values x machine sizes, or an adaptive
// crossover refinement — instead of enumerating every point the way
// /v1/sweep does (the body cap makes huge explicit grids impossible).
type jobSubmitRequest struct {
	// Mode is "grid" (default) or "refine".
	Mode  string `json:"mode,omitempty"`
	Label string `json:"label,omitempty"`
	// Schemes names the competing schemes (refine needs at least two).
	Schemes  []string `json:"schemes"`
	LockFrac *float64 `json:"lockfrac,omitempty"`
	// UpdateFrac tunes the hybrid-update scheme's update share.
	UpdateFrac *float64 `json:"updatefrac,omitempty"`
	// Level / Params set the base workload, as in /v1/bus.
	Level  string          `json:"level,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	// Axis sweeps one workload parameter: grid mode takes Steps linear
	// values over [From, To]; refine mode subdivides adaptively (and also
	// accepts "procs" for the machine-size axis).
	Axis  string  `json:"axis,omitempty"`
	From  float64 `json:"from,omitempty"`
	To    float64 `json:"to,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// Procs fixes the machine size (default 16). Grid mode can sweep
	// sizes instead with ProcsFrom..ProcsTo, inclusive.
	Procs     int `json:"procs,omitempty"`
	ProcsFrom int `json:"procs_from,omitempty"`
	ProcsTo   int `json:"procs_to,omitempty"`
	// Coarse and MinStep tune refine mode (see sweep.RefineSpec).
	Coarse  int     `json:"coarse,omitempty"`
	MinStep float64 `json:"min_step,omitempty"`
}

type jobSubmitResponse struct {
	ID string `json:"id"`
	// Points is the grid size for grid mode, or the worst-case cell
	// bound for refine mode.
	Points     int    `json:"points"`
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
}

// jobStatusJSON is one job's status snapshot on the wire.
type jobStatusJSON struct {
	ID          string  `json:"id"`
	Label       string  `json:"label,omitempty"`
	State       string  `json:"state"`
	Error       string  `json:"error,omitempty"`
	PointsOK    uint64  `json:"points_ok"`
	PointsErr   uint64  `json:"points_err"`
	SpooledRows int     `json:"spooled_rows"`
	HighWater   int     `json:"high_water"`
	NextSeq     uint64  `json:"next_seq"`
	AckedSeq    uint64  `json:"acked_seq"`
	AgeSeconds  float64 `json:"age_seconds"`
}

func statusJSON(s jobs.Snapshot) jobStatusJSON {
	return jobStatusJSON{
		ID: s.ID, Label: s.Label, State: string(s.State), Error: s.Err,
		PointsOK: s.PointsOK, PointsErr: s.PointsErr,
		SpooledRows: s.SpooledRows, HighWater: s.HighWater,
		NextSeq: s.NextSeq, AckedSeq: s.AckedSeq,
		AgeSeconds: time.Since(s.Created).Seconds(),
	}
}

// jobRowJSON is one grid-mode result line: a (scheme, axis value,
// machine size) cell with its model point, or the error that cell hit
// (injected faults and recovered panics land here — a failing cell is
// data, not a job failure).
type jobRowJSON struct {
	Scheme string         `json:"scheme"`
	X      *float64       `json:"x,omitempty"`
	Procs  int            `json:"procs"`
	Point  *core.BusPoint `json:"point,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// refineRowJSON is one refine-mode result line: an evaluated axis value
// with every scheme's power, tagged with the wave that evaluated it.
type refineRowJSON struct {
	Wave  int       `json:"wave"`
	X     float64   `json:"x"`
	Power []float64 `json:"power"`
	Best  string    `json:"best"`
}

// refineBoundaryJSON reports one located crossover at the end of a
// refine job's stream.
type refineBoundaryJSON struct {
	Boundary struct {
		Lo     float64 `json:"lo"`
		Hi     float64 `json:"hi"`
		LoBest string  `json:"lo_best"`
		HiBest string  `json:"hi_best"`
	} `json:"boundary"`
}

// seqMarkerJSON follows each streamed batch: the cursor value a client
// passes back as ?after= to resume past that batch.
type seqMarkerJSON struct {
	Seq uint64 `json:"seq"`
}

// jobTrailerJSON is the stream's final line.
type jobTrailerJSON struct {
	Done      bool   `json:"done"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	PointsOK  uint64 `json:"points_ok"`
	PointsErr uint64 `json:"points_err"`
}

// jobBatchRows is how many grid cells one spool batch carries: big
// enough to amortize encoding and flushing, small enough that
// back-pressure engages well before the spool cap.
const jobBatchRows = 512

// jobWriteWindow is how long a results stream may go without delivering
// a batch before its connection's write deadline fires.
const jobWriteWindow = 30 * time.Second

// handleJobSubmit validates the spec, registers the job, and returns
// its ID immediately; the grid solves in the background.
func (s *Server) handleJobSubmit(ctx context.Context, body []byte) (any, error) {
	var req jobSubmitRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Schemes) == 0 {
		return nil, badRequest(`"schemes" must be a non-empty array`)
	}
	schemes := make([]core.Scheme, 0, len(req.Schemes))
	for _, name := range req.Schemes {
		lf, uf := knobArgs(name, req.LockFrac, req.UpdateFrac)
		sch, err := resolveScheme(name, lf, uf)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, sch)
	}
	base, err := resolveParams(req.Level, req.Params)
	if err != nil {
		return nil, err
	}

	var run jobs.Runner
	var points int
	switch req.Mode {
	case "", "grid":
		run, points, err = s.gridJob(req, schemes, base)
	case "refine":
		run, points, err = s.refineJob(req, schemes, base)
	default:
		err = badRequest("unknown mode %q (want grid or refine)", req.Mode)
	}
	if err != nil {
		return nil, err
	}
	if points > s.cfg.MaxJobPoints {
		return nil, badRequest("job of %d points exceeds the %d-point cap", points, s.cfg.MaxJobPoints)
	}
	j, err := s.jobs.Submit(req.Label, run)
	if err != nil {
		return nil, err
	}
	s.log.Info("job submitted", "job", j.ID(), "label", req.Label, "mode", req.Mode, "points", points)
	return jobSubmitResponse{
		ID: j.ID(), Points: points,
		StatusURL:  "/v1/jobs/" + j.ID(),
		ResultsURL: "/v1/jobs/" + j.ID() + "/results",
	}, nil
}

// gridJob validates a grid spec and builds its runner. The grid is
// schemes x axis values x machine sizes; every cell is its own
// fault-injection site and failure domain.
func (s *Server) gridJob(req jobSubmitRequest, schemes []core.Scheme, base core.Params) (jobs.Runner, int, error) {
	xs := []float64{math.NaN()} // NaN = no axis: the base workload as-is
	if req.Axis != "" {
		if req.Axis == sweep.AxisProcs {
			return nil, 0, badRequest(`grid mode sweeps machine sizes with "procs_from"/"procs_to", not axis "procs"`)
		}
		if _, err := core.FieldByName(req.Axis); err != nil {
			return nil, 0, badRequest("%v", err)
		}
		if !(req.From < req.To) {
			return nil, 0, badRequest(`axis range [%g, %g] is empty (need "from" < "to")`, req.From, req.To)
		}
		if req.Steps < 2 {
			return nil, 0, badRequest(`"steps" must be >= 2 with an axis`)
		}
		xs = make([]float64, req.Steps)
		for i := range xs {
			xs[i] = req.From + (req.To-req.From)*float64(i)/float64(req.Steps-1)
		}
	} else if req.Steps != 0 || req.From != 0 || req.To != 0 {
		return nil, 0, badRequest(`"from"/"to"/"steps" need an "axis"`)
	}

	p1, p2 := req.ProcsFrom, req.ProcsTo
	switch {
	case p1 == 0 && p2 == 0:
		procs, err := s.checkProcs(req.Procs)
		if err != nil {
			return nil, 0, err
		}
		p1, p2 = procs, procs
	case req.Procs != 0:
		return nil, 0, badRequest(`"procs" and "procs_from"/"procs_to" are mutually exclusive`)
	default:
		if p1 == 0 {
			p1 = 1
		}
		if p2 == 0 {
			p2 = p1
		}
		if p1 < 1 || p2 < p1 || p2 > s.cfg.MaxProcs {
			return nil, 0, badRequest("procs range [%d, %d] not within [1, %d]", p1, p2, s.cfg.MaxProcs)
		}
	}
	points := len(schemes) * len(xs) * (p2 - p1 + 1)
	costs := s.costs

	run := func(ctx context.Context, j *jobs.Job) error {
		for _, sch := range schemes {
			for _, x := range xs {
				p := base
				var xp *float64
				if !math.IsNaN(x) {
					var err error
					if p, err = base.With(req.Axis, x); err != nil {
						return err
					}
					v := x
					xp = &v
				}
				if err := s.runGridCurve(ctx, j, sch, p, xp, costs, p1, p2); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return run, points, nil
}

// runGridCurve solves one (scheme, workload) slice of a grid job over
// machine sizes p1..p2, in spool-batch chunks. Machine sizes ascend, so
// each point extends the same CurveRun incrementally; the chunk's
// points stage in a pooled buffer that is released once the rows are
// encoded. The solver semaphore is held only while solving — never
// across Push, which may block on a slow reader.
func (s *Server) runGridCurve(ctx context.Context, j *jobs.Job, sch core.Scheme, p core.Params, x *float64, costs *core.CostTable, p1, p2 int) error {
	label := schemeLabel(sch)
	var run *sweep.CurveRun
	defer func() {
		if run != nil {
			run.Finish(ctx)
		}
	}()
	for lo := p1; lo <= p2; lo += jobBatchRows {
		hi := lo + jobBatchRows - 1
		if hi > p2 {
			hi = p2
		}
		select {
		case s.jobSem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		rows, ok, errs, err := s.solveGridChunk(ctx, &run, sch, p, x, label, costs, lo, hi)
		<-s.jobSem
		if err != nil {
			return err
		}
		j.AddPoints(ok, errs)
		if err := j.Spool().Push(rows); err != nil {
			return err
		}
	}
	return nil
}

// solveGridChunk answers machine sizes lo..hi into encoded rows. Every
// cell is independently fault-injected and panic-recovered: a failing
// cell becomes an error row and the chunk carries on, exactly like a
// /v1/sweep cell. Only a done context aborts the job.
func (s *Server) solveGridChunk(ctx context.Context, run **sweep.CurveRun, sch core.Scheme, p core.Params, x *float64, label string, costs *core.CostTable, lo, hi int) (rows [][]byte, ok, errs uint64, err error) {
	buf := sweep.AcquirePoints(hi - lo + 1)
	defer sweep.ReleasePoints(buf)
	rows = make([][]byte, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		row := jobRowJSON{Scheme: label, X: x, Procs: n}
		pt, perr := s.solveJobPoint(ctx, run, sch, p, costs, n)
		if perr != nil {
			if ctx.Err() != nil {
				return nil, 0, 0, ctx.Err()
			}
			row.Error = perr.Error()
			errs++
		} else {
			(*buf)[n-lo] = pt
			row.Point = &(*buf)[n-lo]
			ok++
		}
		line, merr := json.Marshal(row)
		if merr != nil {
			return nil, 0, 0, merr
		}
		rows = append(rows, line)
	}
	return rows, ok, errs, nil
}

// solveJobPoint is one grid cell: fault injection, then one incremental
// curve point, with a panic (injected or model) recovered into the
// cell's error.
func (s *Server) solveJobPoint(ctx context.Context, run **sweep.CurveRun, sch core.Scheme, p core.Params, costs *core.CostTable, n int) (pt core.BusPoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: internal error: %v", r)
		}
	}()
	if err := s.cfg.Fault.Point(ctx); err != nil {
		return core.BusPoint{}, err
	}
	if *run == nil {
		r, err := s.ev.StartCurveRun(ctx, sch, p, costs)
		if err != nil {
			return core.BusPoint{}, err
		}
		*run = r
	}
	return (*run).BusPointAt(ctx, n)
}

// refineJob validates a refine spec and builds its runner: an adaptive
// crossover search whose waves stream out as they complete, ending with
// the located boundaries.
func (s *Server) refineJob(req jobSubmitRequest, schemes []core.Scheme, base core.Params) (jobs.Runner, int, error) {
	if len(schemes) < 2 {
		return nil, 0, badRequest("refine mode needs at least two schemes")
	}
	axis := req.Axis
	if axis == "" {
		axis = sweep.AxisProcs
	}
	procs := 16
	if req.Procs != 0 {
		var err error
		if procs, err = s.checkProcs(req.Procs); err != nil {
			return nil, 0, err
		}
	}
	if req.ProcsFrom != 0 || req.ProcsTo != 0 {
		return nil, 0, badRequest(`refine mode uses axis "procs", not "procs_from"/"procs_to"`)
	}
	spec := sweep.RefineSpec{
		Schemes: schemes, Base: base, Axis: axis,
		From: req.From, To: req.To, Procs: procs,
		Coarse: req.Coarse, MinStep: req.MinStep,
	}
	// Validate now — at submission — rather than failing the job later:
	// Refine checks its spec before solving anything, so running it under
	// an already-cancelled context surfaces exactly the validation errors.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&sweep.Engine{}).Refine(cancelled, spec); err != nil && !errors.Is(err, context.Canceled) {
		return nil, 0, badRequest("%v", err)
	}
	// Worst case is the full dyadic lattice: every coarse interval
	// subdivided to MinStep (procs axis: to adjacent integers).
	bound := worstCaseRefineCells(spec) * len(schemes)

	run := func(ctx context.Context, j *jobs.Job) error {
		select {
		case s.jobSem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-s.jobSem }()
		eng := &sweep.Engine{Workers: 2, Cache: s.ev}
		wave := 0
		spec.OnWave = func(ctx context.Context, pts []sweep.RefinePoint) error {
			wave++
			rows := make([][]byte, 0, len(pts))
			for _, pt := range pts {
				line, err := json.Marshal(refineRowJSON{
					Wave: wave, X: pt.X, Power: pt.Power,
					Best: schemeLabel(schemes[pt.Best]),
				})
				if err != nil {
					return err
				}
				rows = append(rows, line)
			}
			j.AddPoints(uint64(len(pts))*uint64(len(schemes)), 0)
			return j.Spool().Push(rows)
		}
		res, err := eng.Refine(ctx, spec)
		if err != nil {
			return err
		}
		rows := make([][]byte, 0, len(res.Boundaries))
		for _, b := range res.Boundaries {
			var row refineBoundaryJSON
			row.Boundary.Lo, row.Boundary.Hi = b.Lo, b.Hi
			row.Boundary.LoBest = schemeLabel(schemes[b.LoBest])
			row.Boundary.HiBest = schemeLabel(schemes[b.HiBest])
			line, err := json.Marshal(row)
			if err != nil {
				return err
			}
			rows = append(rows, line)
		}
		return j.Spool().Push(rows)
	}
	return run, bound, nil
}

// worstCaseRefineCells bounds the axis values a refine could evaluate
// if every interval subdivided all the way down.
func worstCaseRefineCells(spec sweep.RefineSpec) int {
	span := spec.To - spec.From
	if span <= 0 {
		return 1
	}
	if spec.Axis == sweep.AxisProcs {
		return int(span) + 1
	}
	minStep := spec.MinStep
	if minStep <= 0 {
		minStep = span / 1024
	}
	cells := span / minStep
	if cells > 1<<30 {
		return 1 << 30
	}
	return int(math.Ceil(cells)) + 1
}

// --- GET /v1/jobs, GET /v1/jobs/{id}, DELETE /v1/jobs/{id} ---

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	snaps := s.jobs.Snapshots()
	out := struct {
		Jobs []jobStatusJSON `json:"jobs"`
	}{Jobs: make([]jobStatusJSON, 0, len(snaps))}
	for _, sn := range snaps {
		out.Jobs = append(out.Jobs, statusJSON(sn))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	s.writeJSON(w, http.StatusOK, statusJSON(j.Snapshot()))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.jobs.Delete(id) {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	s.log.Info("job deleted", "job", id)
	s.writeJSON(w, http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{ID: id, Deleted: true})
}

// --- GET /v1/jobs/{id}/results ---

// handleJobResults streams the job's result rows as NDJSON from the
// ?after= cursor: rows in batch order, a {"seq":N} marker after each
// batch (the cursor to resume from), and a {"done":true,...} trailer
// once the job is terminal and drained. Reading with a cursor
// acknowledges everything at or before it, freeing spool memory;
// rewinding past freed rows is 410 Gone.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	cursor := uint64(0)
	if a := r.URL.Query().Get("after"); a != "" {
		v, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			s.writeError(w, badRequest("bad ?after= cursor %q: %v", a, err))
			return
		}
		cursor = v
	}
	flusher, _ := w.(http.Flusher)
	// A rolling write deadline: each delivered batch buys the stream
	// another window, so a healthy client can stream a huge job for
	// minutes while a stalled one still times out within one window.
	// (Ignored where the transport has no deadlines, e.g. httptest.)
	rc := http.NewResponseController(w)
	started := false
	writeLine := func(v any) bool {
		line, err := json.Marshal(v)
		if err != nil {
			s.log.Error("marshal results line", "err", err)
			return false
		}
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			s.log.Debug("job results client gone", "job", j.ID(), "err", err)
			return false
		}
		return true
	}
	for {
		rc.SetWriteDeadline(time.Now().Add(jobWriteWindow)) //nolint:errcheck
		batches, done, err := j.Spool().Next(r.Context(), cursor)
		switch {
		case errors.Is(err, jobs.ErrGone):
			// Only possible before anything streamed: the first Next
			// validates the client's cursor, later ones use our own.
			s.writeError(w, &httpError{code: http.StatusGone, msg: err.Error()})
			return
		case errors.Is(err, jobs.ErrFuture):
			s.writeError(w, badRequest("%v", err))
			return
		case err != nil:
			// Client disconnect or job cancellation mid-wait. If nothing
			// was streamed yet, report it; otherwise the stream just ends
			// (no trailer) and the client resumes from its last marker.
			if !started {
				s.writeError(w, err)
			}
			return
		}
		for _, b := range batches {
			for _, row := range b.Rows {
				if !writeLine(json.RawMessage(row)) {
					return
				}
			}
			cursor = b.Seq
			if !writeLine(seqMarkerJSON{Seq: cursor}) {
				return
			}
		}
		if started && flusher != nil {
			flusher.Flush()
		}
		if done {
			snap := j.Snapshot()
			trailer := jobTrailerJSON{
				Done: true, State: string(snap.State), Error: snap.Err,
				PointsOK: snap.PointsOK, PointsErr: snap.PointsErr,
			}
			writeLine(trailer)
			if flusher != nil {
				flusher.Flush()
			}
			// The trailer means the client has everything; acknowledge the
			// final batches so the drained spool holds no rows.
			j.Spool().Next(r.Context(), cursor) //nolint:errcheck
			return
		}
	}
}
