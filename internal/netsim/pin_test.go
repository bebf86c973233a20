package netsim

import "testing"

// The pins below hold every field of a result on edge configurations:
// one and eight stages, think time below hold time (and below one
// cycle), no warmup, and horizons that are not a multiple of the 20
// batches. Any change to how the simulators step, draw random numbers
// or count must leave them bit-identical. (The UtilizationCI95 pins of
// the uneven horizons were re-recorded once, when the last batch mean
// started being divided by its own length.)

func TestRunPinned(t *testing.T) {
	for _, want := range []Result{
		{
			Config:      Config{Stages: 1, Think: 3, Hold: 5, Cycles: 1013, Seed: 1},
			Utilization: 0.20829220138203355, Completed: 228, Attempts: 464,
			Acceptance: 0.49137931034482757, MeanWait: 1.0350877192982457,
			UtilizationCI95: 0.030708485570256978, Batches: 20,
		},
		{
			Config:      Config{Stages: 8, Think: 40, Hold: 12, Cycles: 20_007, WarmupCycles: 1000, Seed: 3},
			Utilization: 0.6502721448019151, Completed: 82089, Attempts: 716639,
			Acceptance: 0.11454721275286442, MeanWait: 7.734008210600689,
			UtilizationCI95: 0.00236447963930799, Batches: 20,
		},
		{
			Config:      Config{Stages: 3, Think: 0.4, Hold: 2, Cycles: 999, Seed: 5},
			Utilization: 0.0027527527527527527, Completed: 1863, Attempts: 4252,
			Acceptance: 0.43814675446848544, MeanWait: 1.2823403113258185,
			UtilizationCI95: 0.0011597973448914745, Batches: 20,
		},
		{
			// A horizon the batches divide evenly.
			Config:      Config{Stages: 4, Think: 20, Hold: 6, Cycles: 4400, WarmupCycles: 400, Seed: 2},
			Utilization: 0.674140625, Completed: 2361, Attempts: 6698,
			Acceptance: 0.35249328157659005, MeanWait: 1.8369335027530707,
			UtilizationCI95: 0.01067185489558663, Batches: 20,
		},
		{
			// Fewer measured cycles than batches: no interval.
			Config:      Config{Stages: 2, Think: 2, Hold: 3, Cycles: 15, Seed: 6},
			Utilization: 0.43333333333333335, Completed: 8, Attempts: 15,
			Acceptance: 0.5333333333333333, MeanWait: 0.875,
		},
	} {
		got, err := Run(want.Config)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Errorf("Run(%+v)\n got %+v\nwant %+v", want.Config, *got, want)
		}
	}
}

func TestRunBufferedPinned(t *testing.T) {
	for _, want := range []BufferedResult{
		{
			Config:           BufferedConfig{Stages: 1, Think: 2, Packets: 3, Cycles: 1013, Seed: 1},
			ThinkingFraction: 0.40868706811451133, MeanLatency: 4.708978328173375,
			Completed: 323, MeanQueue: 1.3800592300098717,
		},
		{
			Config:           BufferedConfig{Stages: 8, Think: 30, Packets: 4, Cycles: 5003, WarmupCycles: 500, Seed: 3},
			ThinkingFraction: 0.7116011200866089, MeanLatency: 13.337797729465015,
			Completed: 26954, MeanQueue: 210.53653120142127,
		},
		{
			Config:           BufferedConfig{Stages: 3, Think: 0.5, Packets: 1, Cycles: 997, Seed: 5},
			ThinkingFraction: 0.2694332998996991, MeanLatency: 4.160239000543183,
			Completed: 1841, MeanQueue: 5.844533600802407,
		},
	} {
		got, err := RunBuffered(want.Config)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Errorf("RunBuffered(%+v)\n got %+v\nwant %+v", want.Config, *got, want)
		}
	}
}
