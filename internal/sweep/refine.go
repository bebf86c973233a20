package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"

	"swcc/internal/core"
)

// Adaptive crossover refinement. The paper's headline results (Figures
// 4-9) are crossover studies: at what machine size or workload value
// does one coherence scheme overtake another? A dense grid answers that
// by solving every cell; Refine answers it by solving a coarse grid and
// recursively subdividing only the intervals where the winning scheme
// flips between adjacent points. Every evaluated point goes through the
// same Engine/CurveRun path as a dense sweep, so the values — and hence
// the located boundaries — are bit-identical to the dense grid's at the
// points both evaluate; the refinement merely skips the cells where the
// winner provably cannot change the answer at the requested resolution.

// AxisProcs selects the machine-size axis for RefineSpec.Axis: grid
// values are integer processor counts and subdivision stops at adjacent
// integers (the Figure 4-6 x-axis).
const AxisProcs = "procs"

// RefineSpec describes one adaptive crossover search.
type RefineSpec struct {
	// Schemes are the competing candidates (at least two). The winner at
	// a grid point is the scheme with the highest processing power; ties
	// go to the earliest index, deterministically.
	Schemes []core.Scheme
	// Base is the workload every grid point shares (axis value aside).
	Base core.Params
	// Costs is the cost table (nil means core.BusCosts()).
	Costs *core.CostTable
	// Axis is AxisProcs or a workload parameter name ("apl", "shd", ...).
	Axis string
	// From and To bound the axis, inclusive. From < To.
	From, To float64
	// Procs is the fixed machine size when Axis is a parameter (<= 0
	// means 16). Ignored for AxisProcs.
	Procs int
	// Coarse is the initial grid size including both endpoints (< 2
	// means 9).
	Coarse int
	// MinStep stops subdivision: intervals narrower than or equal to it
	// are reported as boundaries rather than split further. <= 0 means
	// (To-From)/1024. AxisProcs always stops at adjacent integers.
	MinStep float64
}

// RefinePoint is one evaluated axis value: the per-scheme powers (in
// RefineSpec.Schemes order) and the index of the winner.
type RefinePoint struct {
	// X is the axis value (a processor count for AxisProcs).
	X float64
	// Power holds each scheme's processing power at X.
	Power []float64
	// Best is the winning scheme's index in RefineSpec.Schemes.
	Best int
}

// Boundary brackets one crossover: the winner at Lo differs from the
// winner at Hi and the interval is already at the requested resolution.
type Boundary struct {
	// Lo and Hi are adjacent evaluated axis values.
	Lo, Hi float64
	// LoBest and HiBest are the winning scheme indices at Lo and Hi.
	LoBest, HiBest int
}

// RefineResult is the completed search.
type RefineResult struct {
	// Points holds every evaluated grid point, ascending by X.
	Points []RefinePoint
	// Boundaries holds the located crossovers, ascending by Lo.
	Boundaries []Boundary
	// Waves is the number of evaluation rounds (1 = the coarse grid
	// already had no unresolved flips).
	Waves int
	// Solves is the number of (scheme, X) cells evaluated — compare it
	// against len(Schemes) x the dense grid size to see what the
	// refinement saved.
	Solves int
}

// Refine runs the adaptive crossover search on the engine's worker pool
// and cache. Each wave's cells feed one EvaluateBusCtx call, so cells
// sharing a (scheme, canonical workload) ride one CurveRun exactly as a
// dense batch would. Cancellation is cooperative: once ctx is done the
// current wave stops claiming cells and Refine returns ctx's error.
func (e *Engine) Refine(ctx context.Context, spec RefineSpec) (*RefineResult, error) {
	if len(spec.Schemes) < 2 {
		return nil, fmt.Errorf("sweep: refine needs at least two schemes, got %d", len(spec.Schemes))
	}
	if !(spec.From < spec.To) {
		return nil, fmt.Errorf("sweep: refine axis range [%g, %g] is empty", spec.From, spec.To)
	}
	procsAxis := spec.Axis == AxisProcs
	if procsAxis {
		if spec.From < 1 || spec.From != math.Trunc(spec.From) || spec.To != math.Trunc(spec.To) {
			return nil, fmt.Errorf("sweep: procs axis bounds must be integers >= 1, got [%g, %g]", spec.From, spec.To)
		}
	} else if _, err := core.FieldByName(spec.Axis); err != nil {
		return nil, err
	}
	costs := spec.Costs
	if costs == nil {
		costs = core.BusCosts()
	}
	procs := spec.Procs
	if procs <= 0 {
		procs = 16
	}
	coarse := spec.Coarse
	if coarse < 2 {
		coarse = 9
	}
	minStep := spec.MinStep
	if minStep <= 0 {
		minStep = (spec.To - spec.From) / 1024
	}

	res := &RefineResult{}
	// Coarse grid: evenly spaced, endpoints included. The procs axis
	// rounds to integers and drops duplicates (a narrow integer range can
	// have fewer distinct values than requested points).
	var wave []float64
	seen := map[float64]bool{}
	for i := 0; i < coarse; i++ {
		x := spec.From + (spec.To-spec.From)*float64(i)/float64(coarse-1)
		if procsAxis {
			x = math.Round(x)
		}
		if !seen[x] {
			seen[x] = true
			wave = append(wave, x)
		}
	}

	for len(wave) > 0 {
		res.Waves++
		pts, err := e.refineWave(ctx, spec, costs, procs, procsAxis, wave)
		if err != nil {
			return nil, err
		}
		res.Solves += len(wave) * len(spec.Schemes)
		res.Points = append(res.Points, pts...)
		sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].X < res.Points[j].X })
		// Subdivide every interval whose endpoint winners differ and that
		// is still wider than the resolution floor. Midpoints bisect
		// exactly, so repeated halving terminates and revisits no X.
		wave = wave[:0]
		for i := 0; i+1 < len(res.Points); i++ {
			lo, hi := res.Points[i], res.Points[i+1]
			if lo.Best == hi.Best {
				continue
			}
			var mid float64
			if procsAxis {
				if hi.X-lo.X <= 1 {
					continue
				}
				mid = math.Floor((lo.X + hi.X) / 2)
			} else {
				if hi.X-lo.X <= minStep {
					continue
				}
				mid = (lo.X + hi.X) / 2
			}
			if !seen[mid] {
				seen[mid] = true
				wave = append(wave, mid)
			}
		}
	}

	for i := 0; i+1 < len(res.Points); i++ {
		lo, hi := res.Points[i], res.Points[i+1]
		if lo.Best != hi.Best {
			res.Boundaries = append(res.Boundaries, Boundary{
				Lo: lo.X, Hi: hi.X, LoBest: lo.Best, HiBest: hi.Best,
			})
		}
	}
	return res, nil
}

// refineWave evaluates one wave's axis values for every scheme through
// EvaluateBusCtx and reduces them to winners. The cell layout is
// [x][scheme], so a failed cell names its scheme in the error.
func (e *Engine) refineWave(ctx context.Context, spec RefineSpec, costs *core.CostTable, procs int, procsAxis bool, xs []float64) ([]RefinePoint, error) {
	points := make([]Point, 0, len(xs)*len(spec.Schemes))
	for _, x := range xs {
		p := spec.Base
		n := procs
		if procsAxis {
			n = int(x)
		} else {
			var err error
			if p, err = spec.Base.With(spec.Axis, x); err != nil {
				return nil, err
			}
		}
		for _, s := range spec.Schemes {
			points = append(points, Point{Scheme: s, Params: p, NProc: n})
		}
	}
	results := e.EvaluateBusCtx(ctx, points, costs)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]RefinePoint, len(xs))
	for i, x := range xs {
		rp := RefinePoint{X: x, Power: make([]float64, len(spec.Schemes))}
		for j := range spec.Schemes {
			pw := results[i*len(spec.Schemes)+j].Bus.Power
			rp.Power[j] = pw
			if pw > rp.Power[rp.Best] {
				rp.Best = j
			}
		}
		out[i] = rp
	}
	return out, nil
}
