package core

import (
	"encoding/json"
	"fmt"
	"io"

	"swcc/internal/jsonscan"
)

// paramsJSON is the on-disk form of Params, keyed by the paper's
// parameter names. WriteParams encodes through it; DecodeParams reads the
// same names without it.
type paramsJSON struct {
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

// paramNames are the JSON names of the workload fields, in fieldSpecs
// order (TestParamsDecoderFieldOrder pins the correspondence).
var paramNames = func() []string {
	names := make([]string, len(fieldSpecs))
	for i, f := range fieldSpecs {
		names[i] = f.Name
	}
	return names
}()

// ReadParams decodes a JSON workload description: the first JSON value
// of r. Omitted fields default to their Table 7 middle values, so a file
// can override just the parameters a study cares about:
//
//	{"shd": 0.4, "apl": 2}
//
// Unknown fields are rejected (they are almost certainly typos of the
// paper's parameter names). The result is validated.
func ReadParams(r io.Reader) (Params, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Params{}, fmt.Errorf("core: decoding params: %w", err)
	}
	sc := jsonscan.New(data)
	return DecodeParams(&sc)
}

// DecodeParams decodes the workload object at sc's position under
// ReadParams's rules, leaving sc just past it. It accepts exactly what
// encoding/json accepts decoding that object into a struct of *float64
// fields with unknown fields disallowed: keys match case-insensitively,
// the last of duplicate keys wins, and null (for the whole object or one
// field) leaves the middle default in place.
func DecodeParams(sc *jsonscan.Scanner) (Params, error) {
	p := MiddleParams()
	if sc.Null() {
		return p, nil
	}
	if err := sc.Object(); err != nil {
		return Params{}, fmt.Errorf("core: decoding params: %w", err)
	}
	for i := 0; ; i++ {
		key, ok, err := sc.Member(i)
		if err != nil {
			return Params{}, fmt.Errorf("core: decoding params: %w", err)
		}
		if !ok {
			break
		}
		f := jsonscan.Match(key, paramNames)
		if f < 0 {
			return Params{}, fmt.Errorf("core: decoding params: unknown field %q", key)
		}
		v := fieldSpecs[f].Mid
		if !sc.Null() {
			if v, err = sc.Float(); err != nil {
				return Params{}, fmt.Errorf("core: decoding params: %s: %w", paramNames[f], err)
			}
		}
		p.setField(f, v)
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// setField sets field i in fieldSpecs order. It is the Set accessors
// unrolled: calling a Set closure would move p to the heap on every
// decode.
func (p *Params) setField(i int, v float64) {
	switch i {
	case 0:
		p.LS = v
	case 1:
		p.MsDat = v
	case 2:
		p.MsIns = v
	case 3:
		p.MD = v
	case 4:
		p.Shd = v
	case 5:
		p.WR = v
	case 6:
		p.MdShd = v
	case 7:
		p.APL = v
	case 8:
		p.OClean = v
	case 9:
		p.OPres = v
	case 10:
		p.NShd = v
	}
}

// WriteParams encodes the workload as indented JSON with the paper's
// parameter names.
func (p Params) WriteParams(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	pj := paramsJSON{
		LS: &p.LS, MsDat: &p.MsDat, MsIns: &p.MsIns, MD: &p.MD,
		Shd: &p.Shd, WR: &p.WR, APL: &p.APL, MdShd: &p.MdShd,
		OClean: &p.OClean, OPres: &p.OPres, NShd: &p.NShd,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}
