// Package experiments maps every table and figure of the paper's
// evaluation (plus the repository's extensions) to a runnable experiment
// that regenerates its data. Each experiment produces a Dataset — data
// series, a text table, or both — which the CLI and benchmarks render.
//
// The registry is the per-experiment index of DESIGN.md in executable
// form: `RunCtx(ctx, "fig4", opts)` recomputes paper Figure 4.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sweep"
)

// busEval is the package-shared memoizing evaluator: every analytic
// experiment routes its bus-model solves through it, so solves recur at
// most once per distinct (scheme, canonical workload, machine size) no
// matter how many experiments — or RunAllCtx workers — ask. Results are
// bit-identical to fresh solves (see internal/sweep), which is what keeps
// the golden outputs stable.
var busEval = sweep.NewEvaluator()

// ErrUnknownExperiment reports a bad experiment ID.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Options tunes experiment execution.
type Options struct {
	// TraceScale scales the validation traces' instruction counts
	// (1.0 = the presets' full length). Lower it for quick runs;
	// 0 means 1.0.
	TraceScale float64
	// Preset selects the synthetic workload for validation figures
	// ("pops", "thor", "pero"); empty means the figure's default.
	Preset string
	// MaxProcessors overrides the largest bus machine size swept;
	// 0 means the figure's default.
	MaxProcessors int
	// Seed overrides the preset's RNG seed for validation traces;
	// 0 keeps the preset default. Use it to check that validation
	// results are not an artifact of one particular trace.
	Seed uint64
}

func (o Options) traceScale() float64 {
	if o.TraceScale <= 0 {
		return 1
	}
	return o.TraceScale
}

func (o Options) maxProcs(def int) int {
	if o.MaxProcessors <= 0 {
		return def
	}
	return o.MaxProcessors
}

// Dataset is one regenerated table or figure.
type Dataset struct {
	// ID is the experiment ID ("fig4", "table8", ...).
	ID string
	// Title describes the artifact.
	Title string
	// XLabel and YLabel name chart axes when Series is non-empty.
	XLabel, YLabel string
	// LogX plots the chart's x axis on a log scale.
	LogX bool
	// Series holds chart data (may be empty for pure tables).
	Series []plot.Series
	// Table holds tabular data (may be nil for pure charts).
	Table *report.Table
	// Notes carry caveats and observations worth printing.
	Notes []string
}

// datasetJSON is the machine-readable form of a Dataset.
type datasetJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel,omitempty"`
	YLabel string       `json:"ylabel,omitempty"`
	Series []seriesJSON `json:"series,omitempty"`
	Table  *tableJSON   `json:"table,omitempty"`
	Notes  []string     `json:"notes,omitempty"`
}

type seriesJSON struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

type tableJSON struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// WriteJSON emits the dataset in a stable machine-readable form for
// downstream plotting tools.
func (d *Dataset) WriteJSON(w io.Writer) error {
	out := datasetJSON{
		ID: d.ID, Title: d.Title, XLabel: d.XLabel, YLabel: d.YLabel,
		Notes: d.Notes,
	}
	for _, s := range d.Series {
		out.Series = append(out.Series, seriesJSON{Name: s.Name, X: s.X, Y: s.Y})
	}
	if d.Table != nil {
		out.Table = &tableJSON{Header: d.Table.Header, Rows: d.Table.Rows}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Render formats the dataset as text: chart (if any), then table (if
// any), then notes.
func (d *Dataset) Render() (string, error) {
	var b strings.Builder
	if len(d.Series) > 0 {
		out, err := plot.Render(plot.Chart{
			Title:  fmt.Sprintf("%s — %s", d.ID, d.Title),
			XLabel: d.XLabel,
			YLabel: d.YLabel,
			LogX:   d.LogX,
			Series: d.Series,
		})
		if err != nil {
			return "", err
		}
		b.WriteString(out)
	} else if d.Title != "" {
		fmt.Fprintf(&b, "%s — %s\n", d.ID, d.Title)
	}
	if d.Table != nil {
		b.WriteString("\n")
		if err := d.Table.WriteText(&b); err != nil {
			return "", err
		}
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String(), nil
}

// Spec describes one registered experiment.
type Spec struct {
	// ID is the registry key.
	ID string
	// Paper names the paper artifact ("Table 8", "Figure 4",
	// "Extension").
	Paper string
	// Title is a one-line description.
	Title string
	// Run executes the experiment. The context carries cooperative
	// cancellation from the caller (e.g. `cohere all` on SIGINT): runners
	// built on the sweep engine stop claiming grid cells once it is done,
	// and return the context's error for the unsolved remainder. Runners
	// whose work is trivial may ignore it. Under RunCtx and RunAllCtx the
	// context also carries the call's simulation memo (see runMemo).
	Run func(context.Context, Options) (*Dataset, error)
}

var registry = map[string]Spec{}

// register adds a spec at init time; duplicate IDs panic (programmer
// error).
func register(s Spec) {
	if _, dup := registry[s.ID]; dup {
		panic("experiments: duplicate id " + s.ID)
	}
	registry[s.ID] = s
}

// All returns every registered experiment sorted by ID (tables first,
// then figures in numeric order, then extensions).
func All() []Spec {
	specs := make([]Spec, 0, len(registry))
	for _, s := range registry {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return idLess(specs[i].ID, specs[j].ID) })
	return specs
}

// idLess orders IDs with numeric awareness (fig2 < fig10).
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitID(id string) (prefix string, num int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	for ; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			break
		}
		num = num*10 + int(id[i]-'0')
	}
	return prefix, num
}

// ByID looks up an experiment.
func ByID(id string) (Spec, error) {
	s, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for _, sp := range All() {
			ids = append(ids, sp.ID)
		}
		return Spec{}, fmt.Errorf("%w: %q (have: %s)", ErrUnknownExperiment, id, strings.Join(ids, ", "))
	}
	return s, nil
}

// RunCtx executes the experiment with the given ID under ctx's
// cooperative cancellation. Within the call each distinct trace
// measurement and simulation runs once.
func RunCtx(ctx context.Context, id string, opt Options) (*Dataset, error) {
	s, err := ByID(id)
	if err != nil {
		return nil, err
	}
	return s.Run(withMemo(ctx), opt)
}

// RunAllCtx executes every registered experiment with up to
// `parallelism` running concurrently (1 = sequential; 0 defaults to all
// cores) and returns the datasets in registry order. The first failure
// is reported with its experiment ID; other experiments still run to
// completion. Cancellation is cooperative: once ctx is done, no further
// experiment starts (skipped ones fail with ctx's error) and running
// ones wind down at their next cancellation point. The experiments
// share one simulation memo for the call, so each distinct trace
// measurement and simulation runs once per call.
func RunAllCtx(ctx context.Context, opt Options, parallelism int) ([]*Dataset, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	ctx = withMemo(ctx)
	specs := All()
	results := make([]*Dataset, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, spec := range specs {
		// Acquire the slot before spawning so at most `parallelism`
		// goroutines ever exist, instead of eagerly launching one per
		// experiment and letting them all block on the semaphore.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = spec.Run(ctx, opt)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].ID, err)
		}
	}
	return results, nil
}
