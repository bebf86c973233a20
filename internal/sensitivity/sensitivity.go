// Package sensitivity reproduces the paper's Section 4 analysis (Table
// 8): the percent change in execution time when one workload parameter
// moves from its Table 7 low value to its high value, all other
// parameters held at their middle values.
//
// Execution time is the mean time per instruction c + w on a bus machine
// of a given size, so both demand and contention effects are captured.
package sensitivity

import (
	"context"
	"fmt"
	"sort"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

// Cell is one (parameter, scheme) sensitivity result.
type Cell struct {
	// Param is the Table 2 parameter name.
	Param string
	// Scheme is the coherence scheme name.
	Scheme string
	// TimeLow and TimeHigh are execution times (cycles/instruction) at
	// the parameter's low and high Table 7 values.
	TimeLow, TimeHigh float64
	// PercentChange is 100*(TimeHigh-TimeLow)/TimeLow.
	PercentChange float64
}

// Table is the full sensitivity analysis.
type Table struct {
	// Processors is the machine size the times were computed at.
	Processors int
	// Params lists parameter names in Table 7 order.
	Params []string
	// Schemes lists scheme names in column order.
	Schemes []string
	// Cells maps param -> scheme -> cell.
	Cells map[string]map[string]Cell
}

// Cell returns the result for (param, scheme).
func (t *Table) Cell(param, scheme string) (Cell, bool) {
	row, ok := t.Cells[param]
	if !ok {
		return Cell{}, false
	}
	c, ok := row[scheme]
	return c, ok
}

// MostSensitive returns the scheme's parameters sorted by descending
// absolute percent change.
func (t *Table) MostSensitive(scheme string) []Cell {
	cells := make([]Cell, 0, len(t.Params))
	for _, p := range t.Params {
		if c, ok := t.Cell(p, scheme); ok {
			cells = append(cells, c)
		}
	}
	sort.SliceStable(cells, func(i, j int) bool {
		return abs(cells[i].PercentChange) > abs(cells[j].PercentChange)
	})
	return cells
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AnalyzeWithCtx runs the one-at-a-time low->high sweep for the given
// schemes on a bus machine with nproc processors, using the Table 1
// costs. The full (parameter x scheme x level) grid is evaluated on the
// engine's worker pool, and its cache collapses the cells a scheme is
// insensitive to (e.g. varying apl for Base solves once, not twice).
// Results are bit-identical to a sequential uncached run. The grid
// evaluation threads ctx into the engine, so a cancelled caller (a
// timed-out /v1/sensitivity request, an interrupted CLI run) stops
// solving cells instead of finishing a table nobody will read. The
// first error — ctx's own, for cells skipped after cancellation — is
// returned.
func AnalyzeWithCtx(ctx context.Context, eng *sweep.Engine, schemes []core.Scheme, nproc int) (*Table, error) {
	if nproc < 1 {
		return nil, fmt.Errorf("sensitivity: nproc %d < 1", nproc)
	}
	costs := core.BusCosts()
	mid := core.MiddleParams()
	tab := &Table{
		Processors: nproc,
		Cells:      map[string]map[string]Cell{},
	}
	for _, s := range schemes {
		tab.Schemes = append(tab.Schemes, s.Name())
	}
	fields := core.Fields()
	// Grid layout: [field][scheme][low, high], flattened in that order so
	// the first error reported matches the historical sequential loop.
	points := make([]sweep.Point, 0, 2*len(fields)*len(schemes))
	for _, f := range fields {
		for _, s := range schemes {
			for _, l := range []core.Level{core.Low, core.High} {
				p, err := mid.WithLevel(f.Name, l)
				if err != nil {
					return nil, err
				}
				points = append(points, sweep.Point{Scheme: s, Params: p, NProc: nproc})
			}
		}
	}
	results := eng.EvaluateBusCtx(ctx, points, costs)
	if err := sweep.FirstError(results); err != nil {
		return nil, err
	}
	i := 0
	for _, f := range fields {
		tab.Params = append(tab.Params, f.Name)
		row := map[string]Cell{}
		for _, s := range schemes {
			tLow := execTime(results[i].Bus)
			tHigh := execTime(results[i+1].Bus)
			i += 2
			row[s.Name()] = Cell{
				Param:         f.Name,
				Scheme:        s.Name(),
				TimeLow:       tLow,
				TimeHigh:      tHigh,
				PercentChange: 100 * (tHigh - tLow) / tLow,
			}
		}
		tab.Cells[f.Name] = row
	}
	return tab, nil
}

// execTime returns the mean cycles per instruction, contention included,
// from the bus point at the analyzed machine size.
func execTime(pt core.BusPoint) float64 { return 1 / pt.Utilization }
