package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"swcc/internal/core"
)

// The encoding/json oracle: the request path the hand-written decoder
// replaced, kept here as the reference the decoder must agree with —
// strict decoding (unknown fields disallowed) into the former request
// structs, params through encoding/json into *float64 fields, then the
// same scheme and workload resolution. The one intended difference is
// modelled too: the decoder rejects any non-whitespace after the body's
// value, where Decoder.More let a stray '}' or ']' through.

type oracleBusRequest struct {
	Scheme     string          `json:"scheme"`
	LockFrac   *float64        `json:"lockfrac,omitempty"`
	UpdateFrac *float64        `json:"updatefrac,omitempty"`
	Level      string          `json:"level,omitempty"`
	Params     json.RawMessage `json:"params,omitempty"`
	Procs      int             `json:"procs,omitempty"`
	Point      bool            `json:"point,omitempty"`
}

type oracleNetworkRequest struct {
	Scheme     string          `json:"scheme"`
	LockFrac   *float64        `json:"lockfrac,omitempty"`
	UpdateFrac *float64        `json:"updatefrac,omitempty"`
	Level      string          `json:"level,omitempty"`
	Params     json.RawMessage `json:"params,omitempty"`
	Stages     int             `json:"stages"`
	Model      string          `json:"model,omitempty"`
}

type oracleSweepRequest struct {
	Points []oracleBusRequest `json:"points"`
}

type oracleAdvisorRequest struct {
	Level      string          `json:"level,omitempty"`
	Params     json.RawMessage `json:"params,omitempty"`
	Procs      int             `json:"procs,omitempty"`
	Stages     int             `json:"stages,omitempty"`
	Schemes    []string        `json:"schemes,omitempty"`
	LockFrac   *float64        `json:"lockfrac,omitempty"`
	UpdateFrac *float64        `json:"updatefrac,omitempty"`
}

type oracleSensitivityRequest struct {
	Procs      int      `json:"procs,omitempty"`
	Schemes    []string `json:"schemes,omitempty"`
	LockFrac   *float64 `json:"lockfrac,omitempty"`
	UpdateFrac *float64 `json:"updatefrac,omitempty"`
}

type oracleParams struct {
	LS     *float64 `json:"ls"`
	MsDat  *float64 `json:"msdat"`
	MsIns  *float64 `json:"mains"`
	MD     *float64 `json:"md"`
	Shd    *float64 `json:"shd"`
	WR     *float64 `json:"wr"`
	APL    *float64 `json:"apl"`
	MdShd  *float64 `json:"mdshd"`
	OClean *float64 `json:"oclean"`
	OPres  *float64 `json:"opres"`
	NShd   *float64 `json:"nshd"`
}

// oracleDecode is strict decoding with the whole-body tightening.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// oracleReadParams is the former core.ReadParams.
func oracleReadParams(data []byte) (core.Params, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pj oracleParams
	if err := dec.Decode(&pj); err != nil {
		return core.Params{}, err
	}
	p := core.MiddleParams()
	for _, f := range []struct {
		dst *float64
		src *float64
	}{
		{&p.LS, pj.LS}, {&p.MsDat, pj.MsDat}, {&p.MsIns, pj.MsIns}, {&p.MD, pj.MD},
		{&p.Shd, pj.Shd}, {&p.WR, pj.WR}, {&p.APL, pj.APL}, {&p.MdShd, pj.MdShd},
		{&p.OClean, pj.OClean}, {&p.OPres, pj.OPres}, {&p.NShd, pj.NShd},
	} {
		if f.src != nil {
			*f.dst = *f.src
		}
	}
	return p, p.Validate()
}

// oracleWorkload is the former workload resolution: a level, or a
// params value (null counts as sent).
func oracleWorkload(level string, params json.RawMessage) (core.Params, error) {
	var p core.Params
	var perr error
	if len(params) > 0 {
		p, perr = oracleReadParams(params)
	}
	return (&rawQuery{level: level, hasParams: len(params) > 0, params: p, paramsErr: perr}).workload()
}

// oracleResolve is the former per-request resolution.
func oracleResolve(scheme string, lf, uf *float64, level string, params json.RawMessage) (Query, error) {
	sch, err := resolveScheme(scheme, lf, uf)
	if err != nil {
		return Query{}, err
	}
	p, err := oracleWorkload(level, params)
	if err != nil {
		return Query{}, err
	}
	return Query{Scheme: sch, Params: p}, nil
}

// oracleSchemes is the former scheme-list resolution of the advisor and
// sensitivity handlers: each name takes the knob that applies to it, and
// an absent or empty list means def.
func oracleSchemes(names []string, lockFrac, updateFrac *float64, def []core.Scheme) ([]core.Scheme, error) {
	if len(names) == 0 {
		return def, nil
	}
	var out []core.Scheme
	for _, name := range names {
		lf, uf := knobArgs(name, lockFrac, updateFrac)
		sch, err := resolveScheme(name, lf, uf)
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}

func oracleBus(body []byte) (Query, error) {
	var r oracleBusRequest
	if err := oracleDecode(body, &r); err != nil {
		return Query{}, err
	}
	return r.resolve()
}

func (r oracleBusRequest) resolve() (Query, error) {
	q, err := oracleResolve(r.Scheme, r.LockFrac, r.UpdateFrac, r.Level, r.Params)
	q.Procs, q.Point = r.Procs, r.Point
	return q, err
}

func oracleNetwork(body []byte) (Query, error) {
	var r oracleNetworkRequest
	if err := oracleDecode(body, &r); err != nil {
		return Query{}, err
	}
	q, err := oracleResolve(r.Scheme, r.LockFrac, r.UpdateFrac, r.Level, r.Params)
	q.Stages, q.Model = r.Stages, r.Model
	return q, err
}

// envelope is a /v1/advisor or /v1/sensitivity body as its handler
// reads it: each part resolved, with its own error.
type envelope struct {
	params        core.Params
	paramsErr     error
	schemes       []core.Scheme
	schemesErr    error
	procs, stages int
}

// decodeEnvelope decodes a body the way the handler given by fields
// does; def is the handler's default scheme list.
func decodeEnvelope(body []byte, fields uint, def []core.Scheme) (envelope, error) {
	q, err := decodeRaw(body, fields)
	if err != nil {
		return envelope{}, err
	}
	e := envelope{procs: q.procs, stages: q.stages}
	if fields&(1<<fParams) != 0 {
		e.params, e.paramsErr = q.workload()
	}
	e.schemes, e.schemesErr = q.resolveSchemes(def)
	return e, nil
}

func decodeAdvisor(body []byte) (envelope, error) {
	return decodeEnvelope(body, advisorFields, core.DefaultCandidates())
}

func decodeSensitivity(body []byte) (envelope, error) {
	return decodeEnvelope(body, sensitivityFields, core.PaperSchemes())
}

func oracleAdvisor(body []byte) (envelope, error) {
	var r oracleAdvisorRequest
	if err := oracleDecode(body, &r); err != nil {
		return envelope{}, err
	}
	e := envelope{procs: r.Procs, stages: r.Stages}
	e.params, e.paramsErr = oracleWorkload(r.Level, r.Params)
	e.schemes, e.schemesErr = oracleSchemes(r.Schemes, r.LockFrac, r.UpdateFrac, core.DefaultCandidates())
	return e, nil
}

func oracleSensitivity(body []byte) (envelope, error) {
	var r oracleSensitivityRequest
	if err := oracleDecode(body, &r); err != nil {
		return envelope{}, err
	}
	e := envelope{procs: r.Procs}
	e.schemes, e.schemesErr = oracleSchemes(r.Schemes, r.LockFrac, r.UpdateFrac, core.PaperSchemes())
	return e, nil
}

// sameEnvelope compares two decoded envelopes: the same parts fail, and
// what resolves is the same bit for bit.
func sameEnvelope(a, b envelope) bool {
	if (a.paramsErr == nil) != (b.paramsErr == nil) || (a.schemesErr == nil) != (b.schemesErr == nil) ||
		len(a.schemes) != len(b.schemes) || a.procs != b.procs || a.stages != b.stages {
		return false
	}
	for i := range a.schemes {
		if !sameScheme(a.schemes[i], b.schemes[i]) {
			return false
		}
	}
	return a.paramsErr != nil || sameParams(a.params, b.params)
}

// checkEnvelope compares one envelope decoder against its oracle on one
// body.
func checkEnvelope(t *testing.T, name string, body []byte, decode, oracle func([]byte) (envelope, error)) {
	t.Helper()
	got, gerr := decode(body)
	want, werr := oracle(body)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s %q: decoder err %v, oracle err %v", name, body, gerr, werr)
	case gerr == nil && !sameEnvelope(got, want):
		t.Fatalf("%s %q: decoder %+v, oracle %+v", name, body, got, want)
	}
}

// sameScheme compares two resolved schemes, configuration included.
func sameScheme(a, b core.Scheme) bool {
	return a == b && core.SchemeKey(a) == core.SchemeKey(b)
}

// sameQuery compares two resolved queries bit for bit.
func sameQuery(a, b Query) bool {
	return sameScheme(a.Scheme, b.Scheme) && sameParams(a.Params, b.Params) &&
		a.Procs == b.Procs && a.Point == b.Point && a.Stages == b.Stages && a.Model == b.Model
}

// sameParams compares two workloads bit for bit.
func sameParams(pa, pb core.Params) bool {
	for _, f := range [...][2]float64{
		{pa.LS, pb.LS}, {pa.MsDat, pb.MsDat}, {pa.MsIns, pb.MsIns}, {pa.MD, pb.MD},
		{pa.Shd, pb.Shd}, {pa.WR, pb.WR}, {pa.APL, pb.APL}, {pa.MdShd, pb.MdShd},
		{pa.OClean, pb.OClean}, {pa.OPres, pb.OPres}, {pa.NShd, pb.NShd},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
}

// checkSingle compares one decoder against its oracle on one body.
func checkSingle(t *testing.T, name string, body []byte, decode, oracle func([]byte) (Query, error)) {
	t.Helper()
	got, gerr := decode(body)
	want, werr := oracle(body)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s %q: decoder err %v, oracle err %v", name, body, gerr, werr)
	case gerr == nil && !sameQuery(got, want):
		t.Fatalf("%s %q: decoder %+v, oracle %+v", name, body, got, want)
	}
}

// checkSweep compares DecodeSweep against the oracle: whole-body
// accept/reject, every point's resolution, and — when spans are
// reported — that each span alone decodes to its point.
func checkSweep(t *testing.T, body []byte) {
	t.Helper()
	points, spans, gerr := DecodeSweep(body)
	var req oracleSweepRequest
	werr := oracleDecode(body, &req)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("sweep %q: decoder err %v, oracle err %v", body, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if len(points) != len(req.Points) {
		t.Fatalf("sweep %q: %d points, oracle %d", body, len(points), len(req.Points))
	}
	for i, pt := range points {
		want, werr := req.Points[i].resolve()
		if (pt.Err == nil) != (werr == nil) {
			t.Fatalf("sweep %q point %d: decoder err %v, oracle err %v", body, i, pt.Err, werr)
		}
		if pt.Err == nil && !sameQuery(pt.Query, want) {
			t.Fatalf("sweep %q point %d: decoder %+v, oracle %+v", body, i, pt.Query, want)
		}
		if !spans {
			continue
		}
		// The gateway forwards a point's span alone: it must ask the
		// same question.
		alone, aerr := oracleBus(body[pt.Start:pt.End])
		if (aerr == nil) != (werr == nil) || aerr == nil && !sameQuery(alone, want) {
			t.Fatalf("sweep %q point %d: span %q resolves to %+v (%v), want %+v (%v)",
				body, i, body[pt.Start:pt.End], alone, aerr, want, werr)
		}
	}
}

// quirkBodies exercises each encoding/json behaviour the decoder must
// keep, plus the golden request bodies. Each is a bus/sweep-point body;
// the network and sweep corpora derive from them.
var quirkBodies = []string{
	// Golden bodies.
	`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`,
	`{"scheme": "swflush", "params": {"shd": 0.3, "apl": 8}, "procs": 16, "point": true}`,
	`{"scheme": "hybrid", "lockfrac": 0.5, "level": "high", "procs": 4}`,
	`{"scheme": "hybrid-update", "updatefrac": 0.25, "procs": 4}`,
	`{"scheme": "nocache", "level": "low", "procs": 6}`,
	`{"scheme": "base"}`,
	// Case-insensitive keys, Unicode folding included (U+017F folds to s).
	`{"SCHEME": "dragon", "Procs": 8, "POINT": true}`,
	"{\"ſcheme\": \"base\", \"params\": {\"ſhd\": 0.2}}",
	`{"scheme": "base", "params": {"Shd": 0.2, "APL": 3}}`,
	// Escapes in keys and values, surrogate pairs, lone surrogates.
	`{"sch\u0065me": "dr\u0061gon", "params": {"\u0073hd": 0.1}}`,
	`{"scheme": "\ud83d\ude00"}`,
	`{"scheme": "😀"}`,
	`{"scheme": "base\ud800"}`,
	`{"scheme": "\ud800A"}`,
	`{"scheme": "ba\/se\n"}`,
	`{"scheme": "base", "level": "low"}`,
	"{\"scheme\": \"ba\xffse\"}",
	`{"scheme": "base\q"}`,
	`{"scheme": "\u00zz"}`,
	// null: zero value for plain fields, cleared knobs, middle params.
	`{"scheme": "base", "params": null}`,
	`{"scheme": "base", "procs": null, "point": null, "level": null}`,
	`{"scheme": "base", "level": "low", "params": null}`,
	`{"scheme": "hybrid", "lockfrac": 0.9, "lockfrac": null}`,
	`{"scheme": "base", "params": {"shd": null, "apl": 2}}`,
	`{"scheme": "dragon", "scheme": null}`,
	`null`,
	// Duplicate keys: the last wins; an earlier bad params is forgotten.
	`{"scheme": "base", "scheme": "dragon", "procs": 4, "procs": 12}`,
	`{"scheme": "base", "params": {"bogus": 1}, "params": {"shd": 0.3}}`,
	`{"scheme": "base", "params": [1, {"a": [true, null]}], "params": {}}`,
	`{"scheme": "base", "params": {"shd": 0.3}, "params": {"bogus": 1}}`,
	`{"scheme": "base", "params": {"shd": 0.3, "shd": 0.2}}`,
	`{"scheme": "hybrid", "lockfrac": 0.2, "LockFrac": 0.4}`,
	// Integers reject fractions, exponents and overflow.
	`{"scheme": "base", "procs": 8.0}`,
	`{"scheme": "base", "procs": 1e1}`,
	`{"scheme": "base", "procs": 99999999999999999999}`,
	`{"scheme": "base", "procs": -0}`,
	`{"scheme": "base", "procs": 08}`,
	// Floats: ParseFloat semantics, range errors rejected.
	`{"scheme": "base", "params": {"shd": 1e-400}}`,
	`{"scheme": "base", "params": {"shd": 1e400}}`,
	`{"scheme": "base", "params": {"shd": -0}}`,
	`{"scheme": "base", "params": {"shd": 2.5E-1}}`,
	`{"scheme": "base", "params": {"shd": .5}}`,
	`{"scheme": "base", "params": {"shd": 1.}}`,
	`{"scheme": "hybrid", "lockfrac": 1e-320}`,
	// Control bytes inside strings.
	"{\"scheme\": \"ba\tse\"}",
	"{\"sch\neme\": \"base\"}",
	// Wrong types.
	`{"scheme": 5}`,
	`{"scheme": "base", "procs": "8"}`,
	`{"scheme": "base", "point": 1}`,
	`{"scheme": "base", "params": 5}`,
	`{"scheme": "base", "params": "x"}`,
	`{"scheme": "hybrid", "lockfrac": "0.3"}`,
	`[]`,
	`"base"`,
	// Unknown fields, and fields of the other endpoint.
	`{"scheme": "base", "prox": 16}`,
	`{"scheme": "base", "stages": 4}`,
	`{"scheme": "base", "procs": 4, "model": "mva"}`,
	// Whitespace, trailing data, truncation.
	" \t\r\n{ \"scheme\" : \"base\" , \"procs\" : 4 } \n",
	`{"scheme": "base"}}`,
	`{"scheme": "base"}]`,
	`{"scheme": "base"} {"scheme": "base"}`,
	`{"scheme": "base"`,
	`{"scheme": "base",}`,
	`{,"scheme": "base"}`,
	`{"scheme" "base"}`,
	``,
	`nul`,
	`{"scheme": "base", "point": tru}`,
	// Resolution errors.
	`{"scheme": "firefly"}`,
	`{"scheme": "dragon", "lockfrac": 0.5}`,
	`{"scheme": "hybrid", "lockfrac": 1.5}`,
	`{"scheme": "hybrid", "lockfrac": 0.3, "updatefrac": 0.3}`,
	`{"scheme": "base", "level": "extreme"}`,
	`{"scheme": "base", "level": "low", "params": {"shd": 0.2}}`,
	`{"scheme": "base", "params": {"apl": 0.5}}`,
}

// networkQuirks decode a free-form string (the model) into the query,
// pinning string decoding byte for byte.
var networkQuirks = []string{
	`{"scheme": "base", "stages": 4, "model": "\ud83d\ude00|\ud800x|\udc00\ud800|\u00e9\/\"\\\b\f\n\r\t"}`,
	"{\"scheme\": \"base\", \"stages\": 4, \"model\": \"a\xffb\xc3\xa9\xe2\x82\"}",
	`{"scheme": "base", "stages": 4, "model": "\ud800\u0041"}`,
	`{"scheme": "base", "stages": 4, "model": "\ud83d\ud83d\ude00"}`,
	`{"scheme": "base", "stages": 4, "model": "\u0000"}`,
	`{"scheme": "base", "stages": 4, "Model": "mva", "MODEL": "patel"}`,
	`{"scheme": "base", "stages": 4, "model": null}`,
	`{"scheme": "base", "stages": 4.5}`,
}

// networkBody rewrites a bus body into a network one.
func networkBody(b string) string {
	b = strings.ReplaceAll(b, `"procs"`, `"stages"`)
	return strings.ReplaceAll(b, `"point": true`, `"model": "mva"`)
}

// sweepBodies builds sweep bodies from point bodies: singletons, a
// batch, a repeated "points" key (merged element-wise), and envelope
// quirks.
func sweepBodies(points []string) []string {
	out := []string{
		`{"points": []}`, `{"points": null}`, `{}`, `null`, `{"points": [null]}`,
		`{"points": {}}`, `{"Points": [{"scheme": "base"}]}`, `{"points": [], "extra": 1}`,
		`{"points": [{"scheme": "dragon", "procs": 8}, {"scheme": "base"}], "points": [{"procs": 4}]}`,
		`{"points": [{"scheme": "dragon", "procs": 8}], "points": [null, {"scheme": "base"}]}`,
		`{"points": [{"scheme": "base"},]}`, `{"points": [,{"scheme": "base"}]}`,
		`{"points": [{"scheme": "base"}]}]`,
		// A shorter repeat leaves later points in the backing array,
		// where a longer one finds them again; an empty one drops them.
		`{"points": [{"scheme": "dragon"}, {"scheme": "swflush"}], "points": [{}], "points": [{}, {}]}`,
		`{"points": [{"scheme": "dragon"}, {"scheme": "swflush"}], "points": [{}], "points": [{}, null]}`,
		`{"points": [{"scheme": "dragon"}], "points": [], "points": [null]}`,
	}
	for _, p := range points {
		out = append(out, `{"points": [`+p+`]}`)
	}
	return append(out, `{"points": [`+strings.Join(points[:6], ", ")+`]}`)
}

// TestDecodeMatchesOracle runs every quirk body through the decoders
// and the encoding/json oracle.
func TestDecodeMatchesOracle(t *testing.T) {
	for _, b := range quirkBodies {
		checkSingle(t, "bus", []byte(b), DecodeBus, oracleBus)
		checkSingle(t, "network", []byte(networkBody(b)), DecodeNetwork, oracleNetwork)
	}
	for _, b := range networkQuirks {
		checkSingle(t, "network", []byte(b), DecodeNetwork, oracleNetwork)
	}
	for _, b := range sweepBodies(quirkBodies) {
		checkSweep(t, []byte(b))
	}
	for _, b := range envelopeBodies {
		checkEnvelope(t, "advisor", []byte(b), decodeAdvisor, oracleAdvisor)
		checkEnvelope(t, "sensitivity", []byte(b), decodeSensitivity, oracleSensitivity)
	}
}

// TestDecodeRejectsStrayCloser pins the one deliberate tightening: the
// former encoding/json decoding, through Decoder.More, accepted a body
// followed by a stray '}' or ']'.
func TestDecodeRejectsStrayCloser(t *testing.T) {
	for _, b := range []string{`{"scheme": "base"}}`, `{"scheme": "base"}]`} {
		if _, err := DecodeBus([]byte(b)); err == nil {
			t.Errorf("%s: accepted", b)
		}
	}
	if _, _, err := DecodeSweep([]byte(`{"points": [{"scheme": "base"}]}}`)); err == nil {
		t.Error("sweep with stray '}' accepted")
	}
	if _, err := decodeAdvisor([]byte(`{"procs": 4}}`)); err == nil {
		t.Error("advisor with stray '}' accepted")
	}
}

// TestDecodeNestingLimit: encoding/json rejects nesting deeper than
// 10000 levels, inside a params value the decoder only skips too.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999} {
		body := `{"scheme": "base", "params": ` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `, "params": {}}`
		checkSingle(t, fmt.Sprintf("depth %d", depth), []byte(body), DecodeBus, oracleBus)
	}
}

func addCorpus(f *testing.F, bodies []string) {
	for _, b := range bodies {
		f.Add([]byte(b))
	}
}

// FuzzDecodeBus checks DecodeBus against the encoding/json oracle.
func FuzzDecodeBus(f *testing.F) {
	addCorpus(f, quirkBodies)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSingle(t, "bus", body, DecodeBus, oracleBus)
	})
}

// FuzzDecodeNetwork checks DecodeNetwork against the encoding/json
// oracle.
func FuzzDecodeNetwork(f *testing.F) {
	for _, b := range quirkBodies {
		f.Add([]byte(networkBody(b)))
	}
	addCorpus(f, networkQuirks)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSingle(t, "network", body, DecodeNetwork, oracleNetwork)
	})
}

// FuzzDecodeSweep checks DecodeSweep against the encoding/json oracle,
// point spans included.
func FuzzDecodeSweep(f *testing.F) {
	addCorpus(f, sweepBodies(quirkBodies))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSweep(t, body)
	})
}

// coldSweepBody is a 64-point /v1/sweep body shaped like the benchmark's
// cold_sweep batches: every registered scheme in turn, knobs where they
// apply, five explicit workload fields, single points at varied sizes.
func coldSweepBody() []byte {
	schemes := []string{"base", "dragon", "swflush", "nocache", "directory", "hybrid", "winv", "hybrid-update", "swflush-prio"}
	parts := make([]string, 64)
	for i := range parts {
		x := math.Mod(float64(i)*0.6180339887498949, 1)
		s := schemes[i%len(schemes)]
		knob := ""
		switch s {
		case "hybrid":
			knob = fmt.Sprintf(`, "lockfrac": %v`, 0.1+0.8*x)
		case "hybrid-update":
			knob = fmt.Sprintf(`, "updatefrac": %v`, 0.1+0.8*x)
		}
		parts[i] = fmt.Sprintf(`{"scheme": "%s"%s, "params": {"ls": %v, "msdat": %v, "shd": %v, "wr": %v, "apl": %v}, "procs": %d, "point": true}`,
			s, knob, 0.2+0.2*x, 0.004+0.02*x, 0.05+0.4*x, 0.1+0.3*x, 1+24*x, 8+i*7)
	}
	return []byte(`{"points": [` + strings.Join(parts, ", ") + `]}`)
}

// BenchmarkDecodeSweep measures decoding and resolving one 64-point
// cold_sweep-shaped batch.
func BenchmarkDecodeSweep(b *testing.B) {
	body := coldSweepBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSweep(body); err != nil {
			b.Fatal(err)
		}
	}
}
