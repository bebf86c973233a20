package serve

import (
	"fmt"

	"swcc/internal/core"
	"swcc/internal/jsonscan"
)

// The model-query decoder: /v1/bus, /v1/network and /v1/sweep bodies go
// straight from bytes to resolved queries, with no reflection and no
// intermediate request structs. The gateway derives its routing key
// through the same functions, so both tiers agree on what a body asks
// by construction.
//
// The decoder accepts exactly the bodies encoding/json's strict decoding
// (unknown fields disallowed) into the former request structs accepted,
// and resolves them to the same values: case-insensitive keys, the last
// of duplicate keys winning, null leaving a plain field unchanged and
// clearing a knob. One deliberate tightening: anything but whitespace
// after the body's value is rejected.

// Query is one resolved model question: the scheme with its knob
// applied, the validated workload, and the endpoint's shape fields as
// sent. It is what a /v1/bus or /v1/network body, or one /v1/sweep
// point, decodes to.
type Query struct {
	// Scheme is the resolved scheme, knob value applied.
	Scheme core.Scheme
	// Params is the validated workload: explicit params over Table 7
	// middle defaults, a whole Table 7 level, or the middle column.
	Params core.Params
	// Procs is the bus machine size as sent; 0 means the default 16.
	// The server range-checks it.
	Procs int
	// Point asks for the prediction at Procs only, not the 1..Procs
	// curve.
	Point bool
	// Stages is the network size (2^Stages processors) as sent.
	Stages int
	// Model is the network contention model as sent; "" means patel.
	Model string
}

// Query fields by index into queryFields; each endpoint accepts a subset.
const (
	fScheme = iota
	fLockFrac
	fUpdateFrac
	fLevel
	fParams
	fProcs
	fPoint
	fStages
	fModel
)

// queryFields are the request's JSON field names, by field index.
var queryFields = []string{"scheme", "lockfrac", "updatefrac", "level", "params", "procs", "point", "stages", "model"}

// Accepted field sets: a field outside the endpoint's set is unknown.
const (
	busFields     = 1<<fScheme | 1<<fLockFrac | 1<<fUpdateFrac | 1<<fLevel | 1<<fParams | 1<<fProcs | 1<<fPoint
	networkFields = 1<<fScheme | 1<<fLockFrac | 1<<fUpdateFrac | 1<<fLevel | 1<<fParams | 1<<fStages | 1<<fModel
)

// rawQuery is one request object as decoded, before resolution.
type rawQuery struct {
	scheme, level, model string
	lockFrac, updateFrac float64
	hasLock, hasUpdate   bool
	// hasParams records that "params" was sent, null included; params
	// and paramsErr are the last such value's decode.
	hasParams     bool
	params        core.Params
	paramsErr     error
	procs, stages int
	point         bool
}

// decode reads one request object into q, overwriting only the fields
// present — the merge semantics encoding/json applies to duplicate keys
// and to repeated arrays of objects.
func (q *rawQuery) decode(sc *jsonscan.Scanner, fields uint) error {
	if sc.Null() {
		return nil
	}
	if err := sc.Object(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := sc.Member(i)
		if err != nil || !ok {
			return err
		}
		f := jsonscan.Match(key, queryFields)
		if f < 0 || fields&(1<<f) == 0 {
			return fmt.Errorf("unknown field %q", key)
		}
		if f == fParams {
			// A workload error belongs to this value only: a later
			// "params" replaces it, so it is kept, not returned. The
			// value must still be well-formed JSON.
			m := sc.Mark()
			q.hasParams = true
			if q.params, q.paramsErr = core.DecodeParams(sc); q.paramsErr != nil {
				sc.Rewind(m)
				if err := sc.Skip(); err != nil {
					return err
				}
			}
			continue
		}
		if sc.Null() {
			switch f {
			case fLockFrac:
				q.hasLock = false
			case fUpdateFrac:
				q.hasUpdate = false
			}
			continue
		}
		switch f {
		case fScheme, fLevel, fModel:
			var s []byte
			if s, err = sc.String(); err == nil {
				switch f {
				case fScheme:
					q.scheme = string(s)
				case fLevel:
					q.level = string(s)
				default:
					q.model = string(s)
				}
			}
		case fLockFrac:
			q.lockFrac, err = sc.Float()
			q.hasLock = true
		case fUpdateFrac:
			q.updateFrac, err = sc.Float()
			q.hasUpdate = true
		case fProcs:
			q.procs, err = sc.Int()
		case fStages:
			q.stages, err = sc.Int()
		case fPoint:
			q.point, err = sc.Bool()
		}
		if err != nil {
			return err
		}
	}
}

// resolve turns the decoded fields into a Query: the scheme and knob
// through the registry, then the workload.
func (q *rawQuery) resolve() (Query, error) {
	var lf, uf *float64
	if q.hasLock {
		lf = &q.lockFrac
	}
	if q.hasUpdate {
		uf = &q.updateFrac
	}
	scheme, err := resolveScheme(q.scheme, lf, uf)
	if err != nil {
		return Query{}, err
	}
	p, err := resolveWorkload(q.level, q.hasParams, q.params, q.paramsErr)
	if err != nil {
		return Query{}, err
	}
	return Query{Scheme: scheme, Params: p, Procs: q.procs, Point: q.point, Stages: q.stages, Model: q.model}, nil
}

// decodeErr is the 400 for a body that is not a well-formed request.
func decodeErr(err error) error { return badRequest("decoding request: %v", err) }

// decodeQuery decodes and resolves a single-query body.
func decodeQuery(body []byte, fields uint) (Query, error) {
	sc := jsonscan.New(body)
	var q rawQuery
	if err := q.decode(&sc, fields); err != nil {
		return Query{}, decodeErr(err)
	}
	if err := sc.End(); err != nil {
		return Query{}, decodeErr(err)
	}
	return q.resolve()
}

// DecodeBus decodes and resolves a /v1/bus body. Errors are the 400s the
// server answers with; Procs is not yet range-checked.
func DecodeBus(body []byte) (Query, error) { return decodeQuery(body, busFields) }

// DecodeNetwork decodes and resolves a /v1/network body. Errors are the
// 400s the server answers with; Stages and Model are not yet checked.
func DecodeNetwork(body []byte) (Query, error) { return decodeQuery(body, networkFields) }

// SweepPoint is one decoded /v1/sweep point.
type SweepPoint struct {
	// Query is the resolved point; valid when Err is nil.
	Query Query
	// Err is the point's resolution error (unknown scheme, bad knob,
	// invalid workload), without the "points[i]" prefix.
	Err error
	// Start and End delimit the point's JSON value in the body.
	Start, End int
}

// sweepFields is the /v1/sweep envelope's one field.
var sweepFields = []string{"points"}

// DecodeSweep decodes a /v1/sweep body and resolves each point. An
// error means the body as a whole is malformed (a 400); per-point
// resolution errors are reported in the points, in order. spans is false
// when the body repeats "points": the later array's objects then merge
// into the earlier one's, so a point is no single run of bytes and
// Start/End do not describe it.
func DecodeSweep(body []byte) (points []SweepPoint, spans bool, err error) {
	sc := jsonscan.New(body)
	raws, spans, err := decodeSweepPoints(&sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, false, decodeErr(err)
	}
	points = make([]SweepPoint, len(raws))
	for i := range raws {
		points[i].Query, points[i].Err = raws[i].q.resolve()
		points[i].Start, points[i].End = raws[i].start, raws[i].end
	}
	return points, spans, nil
}

// rawPoint is one decoded sweep point and its byte span.
type rawPoint struct {
	q          rawQuery
	start, end int
}

func decodeSweepPoints(sc *jsonscan.Scanner) (pts []rawPoint, spans bool, err error) {
	spans = true
	if sc.Null() {
		return nil, spans, nil
	}
	if err := sc.Object(); err != nil {
		return nil, false, err
	}
	for i := 0; ; i++ {
		key, ok, err := sc.Member(i)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return pts, spans, nil
		}
		if jsonscan.Match(key, sweepFields) < 0 {
			return nil, false, fmt.Errorf("unknown field %q", key)
		}
		if i > 0 { // "points" is the only field: member i > 0 repeats it
			spans = false
		}
		if sc.Null() {
			pts = nil
			continue
		}
		if err := sc.Array(); err != nil {
			return nil, false, err
		}
		n := 0
		for ; ; n++ {
			ok, err := sc.Elem(n)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			if n == len(pts) {
				pts = append(pts, rawPoint{})
			}
			pts[n].start = sc.Pos()
			if err := pts[n].q.decode(sc, busFields); err != nil {
				return nil, false, err
			}
			pts[n].end = sc.Pos()
		}
		pts = pts[:n]
	}
}
