package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"swcc/internal/core"
	"swcc/internal/fault"
	"swcc/internal/jsonscan"
	"swcc/internal/obs"
	"swcc/internal/sensitivity"
	"swcc/internal/sweep"
)

// httpError carries an explicit status code through the handler plumbing.
type httpError struct {
	code int
	msg  string
}

// Error returns the message sent to the client.
func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// apiFunc is one decoded-and-solved endpoint; the apiHandler wrapper owns
// body limits, the timeout budget, and error mapping.
type apiFunc func(ctx context.Context, body []byte) (any, error)

// apiHandler adapts an apiFunc to http: it caps and reads the body,
// attaches the request timeout, and renders the result or the mapped
// error as JSON.
func (s *Server) apiHandler(fn apiFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Admission control: when the solve queue is already past its
		// depth cap, reject before even reading the body — the cheapest
		// possible 503, spending no decode or validation work on a
		// request that would only time out in line anyway.
		if s.met.queueDepth.Load() >= int64(s.cfg.MaxQueueDepth) {
			s.met.sheds.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "serve: solve queue full; retry later"})
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.writeError(w, &httpError{
					code: http.StatusRequestEntityTooLarge,
					msg:  fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				})
				return
			}
			s.writeError(w, badRequest("reading body: %v", err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Open the decode/validate stage: solve() closes it when the
		// handler crosses from validation into model work.
		ctx = context.WithValue(ctx, validateStartKey{}, obs.Start())
		v, err := fn(ctx, body)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v)
	}
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer". No client reads this response; it
// exists so access logs and the requests-by-code series separate
// client disconnects from genuine server-side timeouts (504).
const statusClientClosedRequest = 499

// retryAfterSeconds derives a Retry-After hint for a 503 from observed
// load instead of a constant: the p90 solve latency times the queue
// positions a retry would wait behind, spread over the solver slots,
// clamped to [1,60] whole seconds. A cold server (empty histogram)
// hints 1s; a deeply backed-up one pushes retries far enough out that
// they land after the queue has actually drained.
func (s *Server) retryAfterSeconds() int {
	p90 := s.met.byStage[sweep.StageSolve].Snapshot().Quantile(0.9)
	wait := p90 * float64(s.met.queueDepth.Load()+1) / float64(s.cfg.MaxInFlight)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeError maps an error to its status code and renders it. Model
// domain errors are client errors: invalid workloads are 400s and
// scheme/hardware mismatches 422s. Overload and injected faults are
// retryable 503s carrying a load-derived Retry-After, a timed-out
// solve is 504, a client disconnect is 499; only genuinely unexpected
// failures surface as 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, errBusy), errors.Is(err, fault.ErrInjected):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, core.ErrInvalidParams):
		code = http.StatusBadRequest
	case errors.Is(err, core.ErrUnsupported):
		code = http.StatusUnprocessableEntity
	}
	s.writeJSON(w, code, errorResponse{Error: err.Error()})
}

// bufferReleaser is implemented by responses whose fields reference
// pooled buffers. writeJSON invokes it immediately after encoding — the
// earliest moment the buffers are provably no longer referenced — so
// callers that build pooled responses need no extra bookkeeping on the
// success path.
type bufferReleaser interface {
	ReleaseBuffers()
}

// encodeBufPool recycles the response encode buffers across requests.
// Buffers that grew beyond encodeBufMax bytes (a giant sweep response)
// are dropped rather than pinned in the pool forever.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const encodeBufMax = 1 << 20

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encoder.Encode writes the same bytes json.Marshal produces plus
	// the trailing newline every response here always carried.
	err := json.NewEncoder(buf).Encode(v)
	if rel, ok := v.(bufferReleaser); ok {
		rel.ReleaseBuffers()
	}
	if err != nil {
		// Responses are plain data structs; failing to marshal one is a
		// programming error, not a client error.
		code = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString("{\"error\":\"encoding response\"}\n")
		s.log.Error("marshal response", "err", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Debug("write response", "err", err)
	}
	if buf.Cap() <= encodeBufMax {
		encodeBufPool.Put(buf)
	}
}

// decodeStrict decodes one JSON object, rejecting unknown fields and
// trailing garbage. Strictness at the boundary is what turns typos
// ("prox": 32) into 400s instead of silently-defaulted wrong answers.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decoding request: %v", err)
	}
	if dec.More() {
		return badRequest("decoding request: trailing data after JSON object")
	}
	return nil
}

// resolveParams turns an envelope's workload spec into a validated
// core.Params: `params` decodes through core.DecodeParams, so field names,
// unknown field rejection, Table 7 middle defaults for omitted fields,
// and domain validation (including the NaN/Inf checks) are exactly the
// library's; `level` selects a whole Table 7 column instead.
func resolveParams(level string, params json.RawMessage) (core.Params, error) {
	var p core.Params
	var err error
	if len(params) > 0 {
		sc := jsonscan.New(params)
		p, err = core.DecodeParams(&sc)
	}
	return resolveWorkload(level, len(params) > 0, p, err)
}

// resolveWorkload applies the workload rules to a request that sent a
// level and/or a params value (null counts as sent) whose decode gave
// decoded and decodeErr: the two are mutually exclusive, a level selects
// a whole Table 7 column, and neither means the middle column.
func resolveWorkload(level string, hasParams bool, decoded core.Params, decodeErr error) (core.Params, error) {
	if level != "" && hasParams {
		return core.Params{}, badRequest(`"level" and "params" are mutually exclusive`)
	}
	switch level {
	case "":
	case "low":
		return core.ParamsAt(core.Low), nil
	case "mid":
		return core.ParamsAt(core.Mid), nil
	case "high":
		return core.ParamsAt(core.High), nil
	default:
		return core.Params{}, badRequest("unknown level %q (want low, mid, or high)", level)
	}
	if !hasParams {
		return core.MiddleParams(), nil
	}
	if decodeErr != nil {
		return core.Params{}, badRequest("%v", decodeErr)
	}
	return decoded, nil
}

// resolveScheme resolves a request's scheme name against the registry,
// applying the scheme's knob ("lockfrac" for hybrid, "updatefrac" for
// hybrid-update) when the request carries one. A knob value sent for a
// scheme without that knob is a 400, as before.
func resolveScheme(name string, lockFrac, updateFrac *float64) (core.Scheme, error) {
	info, ok := core.SchemeInfoByName(name)
	if !ok {
		_, err := core.SchemeByName(name) // for the names-listing error text
		return nil, badRequest("%v", err)
	}
	var knob *float64
	switch {
	case lockFrac != nil && updateFrac != nil:
		return nil, badRequest(`"lockfrac" and "updatefrac" are mutually exclusive`)
	case lockFrac != nil:
		if info.Knob != "lockfrac" {
			return nil, badRequest(`"lockfrac" only applies to scheme "hybrid"`)
		}
		knob = lockFrac
	case updateFrac != nil:
		if info.Knob != "updatefrac" {
			return nil, badRequest(`"updatefrac" only applies to scheme "hybrid-update"`)
		}
		knob = updateFrac
	}
	if info.Configure == nil {
		return info.Scheme, nil
	}
	v := info.KnobDefault
	if knob != nil {
		v = *knob
		if math.IsNaN(v) || v < 0 || v > 1 {
			return nil, badRequest("%s %v not in [0,1]", info.Knob, v)
		}
	}
	sch, err := info.Configure(v)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return sch, nil
}

// knobArgs picks which of the request's knob values apply to the named
// scheme, so a request listing several schemes can carry "lockfrac" (or
// "updatefrac") without erroring on the schemes that have no such knob —
// matching the old behavior of passing lockfrac only to "hybrid".
func knobArgs(name string, lockFrac, updateFrac *float64) (lf, uf *float64) {
	if info, ok := core.SchemeInfoByName(name); ok {
		switch info.Knob {
		case "lockfrac":
			lf = lockFrac
		case "updatefrac":
			uf = updateFrac
		}
	}
	return lf, uf
}

// schemeLabel is the cache's identity string for a scheme: Name, or
// String when the scheme carries configuration (Hybrid's lock fraction).
func schemeLabel(s core.Scheme) string {
	if str, ok := s.(fmt.Stringer); ok {
		return str.String()
	}
	return s.Name()
}

func (s *Server) checkProcs(procs int) (int, error) {
	if procs == 0 {
		return 16, nil
	}
	if procs < 1 || procs > s.cfg.MaxProcs {
		return 0, badRequest("procs %d not in [1,%d]", procs, s.cfg.MaxProcs)
	}
	return procs, nil
}

func (s *Server) checkStages(stages int) (int, error) {
	if stages < 1 || stages > s.cfg.MaxStages {
		return 0, badRequest("stages %d not in [1,%d]", stages, s.cfg.MaxStages)
	}
	return stages, nil
}

// --- /v1/bus ---

type busResponse struct {
	Scheme string          `json:"scheme"`
	Costs  string          `json:"costs"`
	Procs  int             `json:"procs"`
	Points []core.BusPoint `json:"points"`
}

func (s *Server) handleBus(ctx context.Context, body []byte) (any, error) {
	q, err := DecodeBus(body)
	if err != nil {
		return nil, err
	}
	procs, err := s.checkProcs(q.Procs)
	if err != nil {
		return nil, err
	}
	scheme, p, costs := q.Scheme, q.Params, s.costs
	return s.solve(ctx, func() (any, error) {
		resp := busResponse{Scheme: schemeLabel(scheme), Costs: costs.Name, Procs: procs}
		if q.Point {
			pt, err := s.ev.BusPointCtx(ctx, scheme, p, costs, procs)
			if err != nil {
				return nil, err
			}
			resp.Points = []core.BusPoint{pt}
			return resp, nil
		}
		pts, err := s.ev.EvaluateBusCtx(ctx, scheme, p, costs, procs, nil)
		if err != nil {
			return nil, err
		}
		resp.Points = pts
		return resp, nil
	})
}

// --- /v1/network ---

type networkResponse struct {
	Scheme string            `json:"scheme"`
	Model  string            `json:"model"`
	Point  core.NetworkPoint `json:"point"`
}

// handleNetwork answers /v1/network. Model selects the contention
// model: "patel" (default, the paper's retry fixed point) or "mva" (the
// footnote-2 load-dependent MVA).
func (s *Server) handleNetwork(ctx context.Context, body []byte) (any, error) {
	q, err := DecodeNetwork(body)
	if err != nil {
		return nil, err
	}
	stages, err := s.checkStages(q.Stages)
	if err != nil {
		return nil, err
	}
	model := q.Model
	if model == "" {
		model = "patel"
	}
	if model != "patel" && model != "mva" {
		return nil, badRequest("unknown model %q (want patel or mva)", q.Model)
	}
	scheme, p := q.Scheme, q.Params
	return s.solve(ctx, func() (any, error) {
		var pt core.NetworkPoint
		var err error
		if model == "mva" {
			pt, err = core.EvaluateNetworkMVA(ctx, scheme, p, stages)
		} else {
			pt, err = core.EvaluateNetworkAt(scheme, p, stages)
		}
		if err != nil {
			return nil, err
		}
		return networkResponse{Scheme: schemeLabel(scheme), Model: model, Point: pt}, nil
	})
}

// --- /v1/advisor ---

type advisorRequest struct {
	Level  string          `json:"level,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Procs  int             `json:"procs,omitempty"`
	// Stages 0 ranks on a Procs-processor bus; >= 1 on a 2^Stages
	// network.
	Stages int `json:"stages,omitempty"`
	// Schemes restricts the candidate set (default: the advisor's usual
	// implementable candidates).
	Schemes  []string `json:"schemes,omitempty"`
	LockFrac *float64 `json:"lockfrac,omitempty"`
	// UpdateFrac tunes the hybrid-update scheme's update share.
	UpdateFrac *float64 `json:"updatefrac,omitempty"`
}

type rankingJSON struct {
	Scheme     string  `json:"scheme"`
	Power      float64 `json:"power"`
	Efficiency float64 `json:"efficiency"`
}

type advisorResponse struct {
	Hardware string        `json:"hardware"`
	Rankings []rankingJSON `json:"rankings"`
}

func (s *Server) handleAdvisor(ctx context.Context, body []byte) (any, error) {
	var req advisorRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	p, err := resolveParams(req.Level, req.Params)
	if err != nil {
		return nil, err
	}
	candidates := core.DefaultCandidates()
	if len(req.Schemes) > 0 {
		candidates = candidates[:0]
		for _, name := range req.Schemes {
			lf, uf := knobArgs(name, req.LockFrac, req.UpdateFrac)
			sch, err := resolveScheme(name, lf, uf)
			if err != nil {
				return nil, err
			}
			candidates = append(candidates, sch)
		}
	}
	var hardware string
	var rank func() ([]core.Ranking, error)
	if req.Stages == 0 {
		procs, err := s.checkProcs(req.Procs)
		if err != nil {
			return nil, err
		}
		hardware = fmt.Sprintf("%d-processor bus", procs)
		rank = func() ([]core.Ranking, error) {
			return core.RankBusWith(s.ev, candidates, p, s.costs, procs)
		}
	} else {
		if req.Procs != 0 {
			return nil, badRequest(`"procs" and "stages" are mutually exclusive (a network's size is 2^stages)`)
		}
		stages, err := s.checkStages(req.Stages)
		if err != nil {
			return nil, err
		}
		hardware = fmt.Sprintf("%d-processor circuit-switched network", 1<<stages)
		rank = func() ([]core.Ranking, error) {
			return core.RankNetwork(candidates, p, stages)
		}
	}
	return s.solve(ctx, func() (any, error) {
		ranked, err := rank()
		if err != nil {
			return nil, err
		}
		resp := advisorResponse{Hardware: hardware}
		for _, r := range ranked {
			resp.Rankings = append(resp.Rankings, rankingJSON{
				Scheme:     schemeLabel(r.Scheme),
				Power:      r.Power,
				Efficiency: r.Efficiency,
			})
		}
		return resp, nil
	})
}

// --- /v1/sensitivity ---

type sensitivityRequest struct {
	Procs int `json:"procs,omitempty"`
	// Schemes lists the table's columns (default: the paper's four
	// schemes).
	Schemes  []string `json:"schemes,omitempty"`
	LockFrac *float64 `json:"lockfrac,omitempty"`
	// UpdateFrac tunes the hybrid-update scheme's update share.
	UpdateFrac *float64 `json:"updatefrac,omitempty"`
}

func (s *Server) handleSensitivity(ctx context.Context, body []byte) (any, error) {
	var req sensitivityRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	procs, err := s.checkProcs(req.Procs)
	if err != nil {
		return nil, err
	}
	schemes := core.PaperSchemes()
	if len(req.Schemes) > 0 {
		schemes = schemes[:0]
		for _, name := range req.Schemes {
			lf, uf := knobArgs(name, req.LockFrac, req.UpdateFrac)
			sch, err := resolveScheme(name, lf, uf)
			if err != nil {
				return nil, err
			}
			schemes = append(schemes, sch)
		}
	}
	return s.solve(ctx, func() (any, error) {
		// Threading the request ctx means an abandoned sensitivity grid
		// stops solving cells at the engine's next cancellation point
		// instead of finishing the whole table into a dropped response.
		return sensitivity.AnalyzeWithCtx(ctx, &sweep.Engine{Cache: s.ev}, schemes, procs)
	})
}

// --- /healthz ---

type healthResponse struct {
	Status        string      `json:"status"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Cache         sweep.Stats `json:"cache"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.ev.Stats(),
	})
}

// --- /readyz ---

// ReadyzCache summarizes cache warmth for readiness consumers. The
// gateway records it from each probe and reports it per backend on its
// own /healthz and /metrics; routing does not read it.
type ReadyzCache struct {
	// CurveEntries is the number of cached MVA curves.
	CurveEntries int `json:"curve_entries"`
	// HitRatio is lifetime curve-cache hits over lookups, 0 on a cold
	// server.
	HitRatio float64 `json:"hit_ratio"`
}

// ReadyzResponse is the JSON body of GET /readyz — exported so the
// gateway's health checker decodes the same struct the daemon encodes.
type ReadyzResponse struct {
	// Ready mirrors the HTTP status: true on 200, false on 503.
	Ready bool `json:"ready"`
	// Reason says why a not-ready server is not ready ("shedding",
	// "draining", ...); empty when ready.
	Reason string `json:"reason,omitempty"`
	// Cache reports the evaluator's warmth.
	Cache ReadyzCache `json:"cache"`
}

// handleReadyz implements GET /readyz: 503 while the daemon is
// explicitly not-ready (draining) or while admission control is
// shedding (queue past -max-queue), 200 otherwise.
// Distinct from /healthz, which answers 200 for the whole process
// lifetime: ready is "send me traffic", healthy is "don't restart me".
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.ev.Stats()
	resp := ReadyzResponse{Ready: true, Cache: ReadyzCache{CurveEntries: st.CurveEntries}}
	if lookups := st.MVAHits + st.MVASolves; lookups > 0 {
		resp.Cache.HitRatio = float64(st.MVAHits) / float64(lookups)
	}
	if reason := s.notReady.Load(); reason != nil {
		resp.Ready, resp.Reason = false, *reason
	} else if s.met.queueDepth.Load() >= int64(s.cfg.MaxQueueDepth) {
		resp.Ready, resp.Reason = false, "shedding"
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, resp)
}

// --- /metrics ---

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.ev, s.cfg.Fault)
}
