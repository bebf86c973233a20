package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidParams reports workload parameters outside their domain.
var ErrInvalidParams = errors.New("core: invalid workload parameters")

// Params holds the eleven workload parameters of paper Table 2. All
// probabilities lie in [0,1]; APL is a count >= 1 and NShd a count >= 0.
//
// "Shared" means: for the software schemes, data the compiler/programmer
// treats as shared; for Dragon, data actually referenced by more than one
// processor.
type Params struct {
	// LS is the probability an instruction is a load or store.
	LS float64
	// MsDat is the cache miss rate for data references.
	MsDat float64
	// MsIns is the cache miss rate for instruction fetches, per
	// instruction.
	MsIns float64
	// MD is the probability a miss replaces a dirty block.
	MD float64
	// Shd is the probability a load or store refers to shared data.
	Shd float64
	// WR is the probability a shared reference is a store rather than
	// a load.
	WR float64
	// APL is the mean number of references to a shared block before it
	// is flushed (Software-Flush only). Must be >= 1; the paper's
	// sensitivity analysis varies 1/APL over [0.04, 1].
	APL float64
	// MdShd is the probability a shared block is modified before it is
	// flushed (so the flush is dirty).
	MdShd float64
	// OClean is the probability that, on a miss to a shared block, the
	// block is not dirty in any other cache (Dragon only).
	OClean float64
	// OPres is the probability that, on a reference to a shared block,
	// the block is present in another cache (Dragon only).
	OPres float64
	// NShd is the mean number of other caches containing a shared
	// block at a write-broadcast (Dragon only).
	NShd float64
}

// Validate checks every field against its domain. NaN and ±Inf are
// rejected everywhere: comparisons against NaN are always false, so a
// naive range check would wave a NaN workload through into the solvers
// (and into cache keys, where NaN != NaN breaks lookup identity).
func (p Params) Validate() error {
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s = %v is not finite", ErrInvalidParams, name, v)
		}
		return nil
	}
	check := func(name string, v float64) error {
		if err := finite(name, v); err != nil {
			return err
		}
		if v < 0 || v > 1 {
			return fmt.Errorf("%w: %s = %g not in [0,1]", ErrInvalidParams, name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ls", p.LS}, {"msdat", p.MsDat}, {"mains", p.MsIns},
		{"md", p.MD}, {"shd", p.Shd}, {"wr", p.WR},
		{"mdshd", p.MdShd}, {"oclean", p.OClean}, {"opres", p.OPres},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if err := finite("apl", p.APL); err != nil {
		return err
	}
	if p.APL < 1 {
		return fmt.Errorf("%w: apl = %g < 1", ErrInvalidParams, p.APL)
	}
	if err := finite("nshd", p.NShd); err != nil {
		return err
	}
	if p.NShd < 0 {
		return fmt.Errorf("%w: nshd = %g < 0", ErrInvalidParams, p.NShd)
	}
	return nil
}

// Level selects a row of the paper's Table 7 parameter ranges.
type Level int

// The three workload intensities of Table 7.
const (
	Low Level = iota
	Mid
	High
)

// String returns "low", "mid", or "high".
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Mid:
		return "mid"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels returns the three levels in increasing order.
func Levels() []Level { return []Level{Low, Mid, High} }

// FieldSpec describes one workload parameter: its Table 2 name, its Table 7
// range, and accessors. For APL the Low/Mid/High values are the reciprocal
// range from Table 7 converted to APL itself (1/apl of 0.04/0.13/1.0 gives
// APL 25/7.692.../1), and Low..High orders by *workload intensity*, so
// Low = APL 25 (benign) and High = APL 1 (hostile), matching the paper's
// low-to-high sensitivity sweep.
type FieldSpec struct {
	// Name is the paper's parameter name (ls, msdat, mains, md, shd,
	// wr, mdshd, apl, oclean, opres, nshd).
	Name string
	// Doc is the Table 2 description.
	Doc string
	// Low, Mid, High are the Table 7 range values.
	Low, Mid, High float64
	// Get reads the field from p.
	Get func(p *Params) float64
	// Set writes the field in p.
	Set func(p *Params, v float64)
}

// Value returns the field value for the given level.
func (f FieldSpec) Value(l Level) float64 {
	switch l {
	case Low:
		return f.Low
	case High:
		return f.High
	default:
		return f.Mid
	}
}

// fieldSpecs is the canonical parameter table, built once: the memoizing
// evaluator canonicalizes workloads on every cache lookup, so Fields and
// FieldByName must not rebuild eleven specs (and twenty-two closures) per
// call.
var fieldSpecs = []FieldSpec{
	{
		Name: "ls", Doc: "probability an instruction is a load or store",
		Low: 0.2, Mid: 0.3, High: 0.4,
		Get: func(p *Params) float64 { return p.LS },
		Set: func(p *Params, v float64) { p.LS = v },
	},
	{
		Name: "msdat", Doc: "miss rate for data",
		Low: 0.004, Mid: 0.014, High: 0.024,
		Get: func(p *Params) float64 { return p.MsDat },
		Set: func(p *Params, v float64) { p.MsDat = v },
	},
	{
		Name: "mains", Doc: "miss rate for instructions",
		Low: 0.0014, Mid: 0.0022, High: 0.0034,
		Get: func(p *Params) float64 { return p.MsIns },
		Set: func(p *Params, v float64) { p.MsIns = v },
	},
	{
		Name: "md", Doc: "probability a miss replaces a dirty block",
		Low: 0.14, Mid: 0.20, High: 0.50,
		Get: func(p *Params) float64 { return p.MD },
		Set: func(p *Params, v float64) { p.MD = v },
	},
	{
		Name: "shd", Doc: "probability a load or store refers to shared data",
		Low: 0.08, Mid: 0.25, High: 0.42,
		Get: func(p *Params) float64 { return p.Shd },
		Set: func(p *Params, v float64) { p.Shd = v },
	},
	{
		Name: "wr", Doc: "probability a shared reference is a store rather than a load",
		Low: 0.10, Mid: 0.25, High: 0.40,
		Get: func(p *Params) float64 { return p.WR },
		Set: func(p *Params, v float64) { p.WR = v },
	},
	{
		Name: "mdshd", Doc: "probability a shared block is modified before it is flushed",
		Low: 0.0, Mid: 0.25, High: 0.5,
		Get: func(p *Params) float64 { return p.MdShd },
		Set: func(p *Params, v float64) { p.MdShd = v },
	},
	{
		// Table 7 lists 1/apl: 0.04 / 0.13 / 1.0. Low..High
		// orders by intensity: more flushes = heavier load.
		Name: "apl", Doc: "references to a shared block before it is flushed",
		Low: 25, Mid: 1 / 0.13, High: 1,
		Get: func(p *Params) float64 { return p.APL },
		Set: func(p *Params, v float64) { p.APL = v },
	},
	{
		Name: "oclean", Doc: "on miss of a shared block, probability it is not dirty in another cache",
		Low: 0.60, Mid: 0.84, High: 0.976,
		Get: func(p *Params) float64 { return p.OClean },
		Set: func(p *Params, v float64) { p.OClean = v },
	},
	{
		Name: "opres", Doc: "on reference to a shared block, probability it is present in another cache",
		Low: 0.63, Mid: 0.79, High: 0.94,
		Get: func(p *Params) float64 { return p.OPres },
		Set: func(p *Params, v float64) { p.OPres = v },
	},
	{
		Name: "nshd", Doc: "on write-broadcast, number of caches containing the block",
		Low: 1.0, Mid: 1.0, High: 7.0,
		Get: func(p *Params) float64 { return p.NShd },
		Set: func(p *Params, v float64) { p.NShd = v },
	},
}

// fieldIndex maps a parameter name to its fieldSpecs slot.
var fieldIndex = func() map[string]int {
	m := make(map[string]int, len(fieldSpecs))
	for i, f := range fieldSpecs {
		m[f.Name] = i
	}
	return m
}()

// Fields returns the eleven parameter specs in Table 7 order. The slice
// is a fresh copy, so callers may reorder or filter it freely.
func Fields() []FieldSpec {
	out := make([]FieldSpec, len(fieldSpecs))
	copy(out, fieldSpecs)
	return out
}

// FieldByName returns the spec for the named parameter without
// allocating — it sits on the evaluator's cache-key canonicalization
// path.
func FieldByName(name string) (FieldSpec, error) {
	if i, ok := fieldIndex[name]; ok {
		return fieldSpecs[i], nil
	}
	return FieldSpec{}, fmt.Errorf("%w: unknown parameter %q", ErrInvalidParams, name)
}

// ParamsAt returns a Params with every field at the given Table 7 level.
func ParamsAt(l Level) Params {
	var p Params
	for _, f := range fieldSpecs {
		f.Set(&p, f.Value(l))
	}
	return p
}

// middleParams is ParamsAt(Mid), built once: every decoded workload
// starts from it.
var middleParams = ParamsAt(Mid)

// MiddleParams returns the all-middle workload of Table 7, the default
// operating point of the paper's figures.
func MiddleParams() Params { return middleParams }

// With returns a copy of p with the named parameter set to v.
func (p Params) With(name string, v float64) (Params, error) {
	f, err := FieldByName(name)
	if err != nil {
		return p, err
	}
	f.Set(&p, v)
	return p, nil
}

// WithLevel returns a copy of p with the named parameter at the given
// Table 7 level.
func (p Params) WithLevel(name string, l Level) (Params, error) {
	f, err := FieldByName(name)
	if err != nil {
		return p, err
	}
	f.Set(&p, f.Value(l))
	return p, nil
}
