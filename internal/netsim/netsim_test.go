package netsim

import (
	"math"
	"testing"

	"swcc/internal/queueing"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Stages: 4, Think: 50, Hold: 8, Cycles: 5000, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utilization != b.Utilization || a.Completed != b.Completed {
		t.Error("simulation not deterministic")
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completed == a.Completed && c.Utilization == a.Utilization {
		t.Error("different seeds gave identical results (suspicious)")
	}
}

func TestLightLoadUtilization(t *testing.T) {
	// Nearly idle network: U ~= think/(think+hold), the uncontended
	// limit shared with the Patel model.
	cfg := Config{Stages: 6, Think: 2000, Hold: 10, Cycles: 400_000, WarmupCycles: 10_000, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Think / (cfg.Think + float64(cfg.Hold))
	if math.Abs(res.Utilization-want) > 0.02 {
		t.Errorf("light-load U = %.4f, want ~%.4f", res.Utilization, want)
	}
	// Acceptance is per-attempt; a blocked transaction retries once
	// per cycle against a circuit held for `hold` cycles, so even rare
	// collisions cost ~hold failed attempts each. At this load it
	// should still be high.
	if res.Acceptance < 0.85 {
		t.Errorf("light-load acceptance = %.3f, want high", res.Acceptance)
	}
}

func TestUtilizationMonotoneInLoad(t *testing.T) {
	prev := 2.0
	for _, think := range []float64{400, 100, 40, 10} {
		res, err := Run(Config{Stages: 5, Think: think, Hold: 12, Cycles: 100_000, WarmupCycles: 5000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Utilization >= prev {
			t.Errorf("think=%g: U %.3f did not fall (prev %.3f)", think, res.Utilization, prev)
		}
		prev = res.Utilization
	}
}

// TestPatelModelValidation is the reproduction's answer to the paper's
// remark that Patel's model had not been validated by simulation: across
// light, moderate, and heavy load the analytical fixed point must track
// the cycle-level simulation.
func TestPatelModelValidation(t *testing.T) {
	pn := queueing.NewPatelNetwork(6)
	for _, tc := range []struct {
		think float64
		hold  int
	}{
		{500, 16}, {200, 16}, {100, 16}, {50, 16}, {25, 16}, {100, 4}, {40, 28},
	} {
		sim, err := Run(Config{
			Stages: 6, Think: tc.think, Hold: tc.hold,
			Cycles: 300_000, WarmupCycles: 20_000, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		model, err := pn.SolvePatel(1/tc.think, float64(tc.hold))
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(sim.Utilization - model.Utilization)
		rel := diff / model.Utilization
		if rel > 0.15 && diff > 0.05 {
			t.Errorf("think=%g hold=%d: sim U %.3f vs Patel %.3f (%.0f%% apart)",
				tc.think, tc.hold, sim.Utilization, model.Utilization, rel*100)
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	cfg := Config{Stages: 5, Think: 80, Hold: 12, Cycles: 120_000, WarmupCycles: 10_000, Seed: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 20 {
		t.Errorf("batches = %d, want 20", res.Batches)
	}
	if res.UtilizationCI95 <= 0 || res.UtilizationCI95 > 0.05 {
		t.Errorf("CI half-width = %g, expected small positive", res.UtilizationCI95)
	}
	// A re-run with another seed must land inside a few half-widths.
	cfg.Seed = 99
	other, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(res.Utilization - other.Utilization)
	if diff > 4*(res.UtilizationCI95+other.UtilizationCI95) {
		t.Errorf("independent runs differ by %g, far beyond CIs %g/%g",
			diff, res.UtilizationCI95, other.UtilizationCI95)
	}
	// Longer runs tighten the interval.
	cfg.Seed = 4
	cfg.Cycles = 480_000
	longer, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if longer.UtilizationCI95 >= res.UtilizationCI95 {
		t.Errorf("longer run CI %g not tighter than %g", longer.UtilizationCI95, res.UtilizationCI95)
	}
}

func TestThroughputAccounting(t *testing.T) {
	// Completed transactions * hold can never exceed total link-cycle
	// capacity of the final stage (one link per memory module).
	cfg := Config{Stages: 4, Think: 10, Hold: 8, Cycles: 50_000, Seed: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := uint64(cfg.Cycles) * uint64(1<<cfg.Stages)
	if res.Completed*uint64(cfg.Hold) > capacity {
		t.Errorf("completed*hold = %d exceeds final-stage capacity %d",
			res.Completed*uint64(cfg.Hold), capacity)
	}
	if res.MeanWait < 0 {
		t.Error("negative mean wait")
	}
}

func TestRunErrors(t *testing.T) {
	bad := []Config{
		{Stages: 0, Think: 10, Hold: 1, Cycles: 10},
		{Stages: 13, Think: 10, Hold: 1, Cycles: 10},
		{Stages: 2, Think: 0, Hold: 1, Cycles: 10},
		{Stages: 2, Think: 10, Hold: 0, Cycles: 10},
		{Stages: 2, Think: 10, Hold: 1, Cycles: 0},
		{Stages: 2, Think: 10, Hold: 1, Cycles: 10, WarmupCycles: 10},
		{Stages: 2, Think: 10, Hold: 1, Cycles: 10, WarmupCycles: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestButterflyFinalStageIsDestinationLink(t *testing.T) {
	// Two processors targeting the same memory module must conflict:
	// with hold >> think and only 2 processors ever targeting module
	// 0... instead verify structurally via a saturation run: offered
	// load far above capacity still yields acceptance <= 1 and
	// utilization > 0.
	res, err := Run(Config{Stages: 3, Think: 1, Hold: 20, Cycles: 20_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acceptance > 1 || res.Acceptance <= 0 {
		t.Errorf("acceptance = %g", res.Acceptance)
	}
	if res.Utilization <= 0 || res.Utilization > 0.2 {
		t.Errorf("crushing load utilization = %g, expected small", res.Utilization)
	}
}

// TestBatchMeansUnevenHorizon: the last batch absorbs the
// measured%20 leftover cycles and must be divided by its own length.
// With think times far beyond the horizon every processor thinks in
// every cycle, so every batch's utilization is exactly 1 and the
// interval has zero width; dividing the long last batch by the common
// batch length would put it above 1 and widen the interval.
func TestBatchMeansUnevenHorizon(t *testing.T) {
	cfg := Config{Stages: 3, Think: 1e12, Hold: 4, Cycles: 1019, WarmupCycles: 0, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization != 1 || res.Completed != 0 {
		t.Fatalf("utilization %g, completed %d: want an all-thinking run", res.Utilization, res.Completed)
	}
	if res.Batches != 20 || res.UtilizationCI95 != 0 {
		t.Errorf("batches %d, CI half-width %g: want 20 batches and 0", res.Batches, res.UtilizationCI95)
	}
}
