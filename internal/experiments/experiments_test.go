package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// fastOpts keeps validation traces short so the whole registry runs in
// seconds.
var fastOpts = Options{TraceScale: 0.25}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table7", "table8", "table9",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"packet", "directory",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestAllOrdering(t *testing.T) {
	specs := All()
	// fig2 must come before fig10 (numeric, not lexicographic).
	pos := map[string]int{}
	for i, s := range specs {
		pos[s.ID] = i
	}
	if pos["fig2"] > pos["fig10"] {
		t.Error("figures not numerically ordered")
	}
	if pos["fig1"] > pos["fig2"] {
		t.Error("fig1 after fig2")
	}
}

func TestByIDUnknown(t *testing.T) {
	_, err := ByID("fig99")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("want ErrUnknownExperiment, got %v", err)
	}
	if !strings.Contains(err.Error(), "fig4") {
		t.Error("error should list available IDs")
	}
}

// TestEveryExperimentRunsAndRenders is the registry-wide integration
// test: every experiment must produce a renderable dataset with finite
// data.
func TestEveryExperimentRunsAndRenders(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds, err := spec.Run(context.Background(), fastOpts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if ds.ID != spec.ID {
				t.Errorf("dataset id %q != spec id %q", ds.ID, spec.ID)
			}
			if len(ds.Series) == 0 && ds.Table == nil {
				t.Fatal("dataset has neither series nor table")
			}
			for _, s := range ds.Series {
				if len(s.X) != len(s.Y) {
					t.Errorf("series %q length mismatch", s.Name)
				}
				for i := range s.Y {
					if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
						t.Errorf("series %q has non-finite y[%d]", s.Name, i)
					}
				}
			}
			out, err := ds.Render()
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			if len(out) < 40 {
				t.Errorf("suspiciously short rendering: %q", out)
			}
		})
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Series: Ideal, Base, Dragon, Software-Flush, No-Cache.
	if len(ds.Series) != 5 {
		t.Fatalf("got %d series", len(ds.Series))
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	base, dragon := byName["Base"], byName["Dragon"]
	sf, nc := byName["Software-Flush"], byName["No-Cache"]
	last := len(base) - 1
	if !(base[last] >= dragon[last] && dragon[last] > sf[last] && sf[last] > nc[last]) {
		t.Errorf("16-proc ordering wrong: base=%.2f dragon=%.2f sf=%.2f nc=%.2f",
			base[last], dragon[last], sf[last], nc[last])
	}
	// Paper: with medium values Dragon performs very well even at 16.
	if dragon[last] < 10 {
		t.Errorf("Dragon power at 16 = %.2f, expected strong (>10)", dragon[last])
	}
}

func TestFig6SaturationAnchors(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig6", Options{MaxProcessors: 32})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	nc := byName["No-Cache"]
	sf := byName["Software-Flush"]
	if nc[len(nc)-1] >= 2 {
		t.Errorf("No-Cache high-load saturation %.2f, paper says < 2", nc[len(nc)-1])
	}
	if sf[len(sf)-1] >= 5 {
		t.Errorf("Software-Flush high-load saturation %.2f, paper says < 5", sf[len(sf)-1])
	}
}

func TestFig7APLOrdering(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig7", Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	last := len(byName["No-Cache"]) - 1
	if byName["SF apl=1"][last] >= byName["No-Cache"][last] {
		t.Error("SF at apl=1 should fall below No-Cache")
	}
	if byName["SF apl=100"][last] <= byName["Dragon"][last] {
		t.Error("SF at apl=100 should beat Dragon")
	}
	// Monotone in apl.
	apls := []string{"SF apl=1", "SF apl=2", "SF apl=4", "SF apl=8", "SF apl=25", "SF apl=100"}
	for i := 1; i < len(apls); i++ {
		if byName[apls[i]][last] < byName[apls[i-1]][last] {
			t.Errorf("%s below %s", apls[i], apls[i-1])
		}
	}
}

func TestFig1ModelTracksSimulation(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig1", Options{TraceScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	for _, scheme := range []string{"Base", "Dragon"} {
		simY := byName[scheme+" sim"]
		modY := byName[scheme+" model"]
		if len(simY) != 4 || len(modY) != 4 {
			t.Fatalf("%s: expected 4 machine sizes", scheme)
		}
		for i := range simY {
			relErr := math.Abs(simY[i]-modY[i]) / simY[i]
			if relErr > 0.15 {
				t.Errorf("%s n=%d: sim %.3f vs model %.3f (%.0f%% off)",
					scheme, i+1, simY[i], modY[i], relErr*100)
			}
		}
	}
}

// TestValidationRobustAcrossSeeds guards against the validation story
// being an artifact of one lucky trace: with entirely different random
// traces the model must still track the simulation.
func TestValidationRobustAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{0x1111, 0x2222, 0x3333} {
		ds, err := RunCtx(context.Background(), "fig1", Options{TraceScale: 0.35, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string][]float64{}
		for _, s := range ds.Series {
			byName[s.Name] = s.Y
		}
		for _, scheme := range []string{"Base", "Dragon"} {
			simY, modY := byName[scheme+" sim"], byName[scheme+" model"]
			for i := range simY {
				rel := math.Abs(simY[i]-modY[i]) / simY[i]
				if rel > 0.15 {
					t.Errorf("seed %#x %s n=%d: sim %.3f vs model %.3f (%.0f%%)",
						seed, scheme, i+1, simY[i], modY[i], rel*100)
				}
			}
		}
	}
}

func TestFig2LargerCachesMorePower(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig2", Options{TraceScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	// At 4 processors, larger caches must simulate at least as fast.
	s16 := byName["16K sim"]
	s256 := byName["256K sim"]
	if s256[3] < s16[3]*0.98 {
		t.Errorf("256K power %.3f below 16K %.3f at 4 procs", s256[3], s16[3])
	}
}

func TestFig11TwoClasses(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig11", Options{})
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]float64{}
	for _, s := range ds.Series {
		if len(s.Y) == 1 {
			util[s.Name] = s.Y[0]
		}
	}
	if len(util) != 9 {
		t.Fatalf("got %d marked points, want 9", len(util))
	}
	good := []string{"Bl", "Bm", "Bh", "Sl", "Sm", "Nl"}
	poor := []string{"Sh", "Nm", "Nh"}
	for _, g := range good {
		for _, p := range poor {
			if util[g] <= util[p] {
				t.Errorf("class violation: %s (%.3f) <= %s (%.3f)", g, util[g], p, util[p])
			}
		}
	}
}

func TestBlockSizeModelTracksSimulation(t *testing.T) {
	ds, err := RunCtx(context.Background(), "blocksize", Options{TraceScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	sim := byName["simulation"]
	model := byName["model (measured rates)"]
	if len(sim) != 5 || len(model) != 5 {
		t.Fatalf("series lengths %d/%d", len(sim), len(model))
	}
	for i := range sim {
		rel := (sim[i] - model[i]) / sim[i]
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.15 {
			t.Errorf("point %d: sim %.3f vs model %.3f (%.0f%% apart)", i, sim[i], model[i], rel*100)
		}
	}
	if sim[4] >= sim[0] {
		t.Error("block-granular workload: power should fall as blocks grow")
	}
}

func TestFig10SimCrossover(t *testing.T) {
	ds, err := RunCtx(context.Background(), "fig10sim", Options{TraceScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range ds.Series {
		byName[s.Name] = s.Y
	}
	for _, proto := range []string{"Software-Flush", "No-Cache"} {
		bus := byName[proto+" (bus)"]
		net := byName[proto+" (net)"]
		if len(bus) != 4 || len(net) != 4 {
			t.Fatalf("%s: wrong series lengths", proto)
		}
		if bus[0] < net[0] {
			t.Errorf("%s: bus should win at 2 processors (%.2f vs %.2f)", proto, bus[0], net[0])
		}
		if net[3] <= bus[3] {
			t.Errorf("%s: network should win at 16 processors (%.2f vs %.2f)", proto, net[3], bus[3])
		}
	}
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	opts := Options{TraceScale: 0.1}
	par, err := RunAllCtx(context.Background(), opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	specs := All()
	if len(par) != len(specs) {
		t.Fatalf("got %d datasets, want %d", len(par), len(specs))
	}
	for i, ds := range par {
		if ds.ID != specs[i].ID {
			t.Errorf("position %d: dataset %s, spec %s (ordering lost)", i, ds.ID, specs[i].ID)
		}
	}
	// One slot runs the trace lane, then everything else, one at a
	// time; every dataset must match the parallel call's.
	one, err := RunAllCtx(context.Background(), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if datasetDigest(t, one[i]) != datasetDigest(t, par[i]) {
			t.Errorf("%s differs between parallelism 1 and 8", specs[i].ID)
		}
	}
	// Spot-check determinism against a direct sequential run.
	seq, err := RunCtx(context.Background(), "fig1", opts)
	if err != nil {
		t.Fatal(err)
	}
	var parFig1 *Dataset
	for _, ds := range par {
		if ds.ID == "fig1" {
			parFig1 = ds
		}
	}
	for si := range seq.Series {
		for i := range seq.Series[si].Y {
			if seq.Series[si].Y[i] != parFig1.Series[si].Y[i] {
				t.Fatalf("fig1 series %d point %d differs between parallel and sequential", si, i)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.traceScale() != 1 {
		t.Error("default trace scale")
	}
	if o.maxProcs(16) != 16 {
		t.Error("default max procs")
	}
	o.MaxProcessors = 4
	if o.maxProcs(16) != 4 {
		t.Error("override max procs")
	}
	// A non-finite scale is an error naming the field, not the floor
	// length a NaN would otherwise truncate every trace to. RunAllCtx
	// gets a cancelled context so only validation can name TraceScale.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, scale := range []float64{math.NaN(), math.Inf(1)} {
		o := Options{TraceScale: scale}
		if _, err := RunCtx(context.Background(), "patel", o); err == nil || !strings.Contains(err.Error(), "TraceScale") {
			t.Errorf("RunCtx with TraceScale %v: err = %v", scale, err)
		}
		if _, err := RunAllCtx(cancelled, o, 1); err == nil || !strings.Contains(err.Error(), "TraceScale") {
			t.Errorf("RunAllCtx with TraceScale %v: err = %v", scale, err)
		}
	}
}
