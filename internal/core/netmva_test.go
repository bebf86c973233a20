package core

import (
	"context"
	"math"
	"testing"
)

func TestNetworkMVAUncontendedLimit(t *testing.T) {
	p := MiddleParams()
	p.LS, p.MsDat, p.MsIns, p.Shd = 0.01, 0.0001, 0.00001, 0
	pt, err := EvaluateNetworkMVA(context.Background(), Base{}, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pt.Utilization, 1/pt.CPU, 1e-3) {
		t.Errorf("idle MVA network U = %g, want ~1/c = %g", pt.Utilization, 1/pt.CPU)
	}
}

func TestNetworkMVAAgreesWithPatelModerateLoad(t *testing.T) {
	// The two contention formulations (retry fixed point vs queued
	// load-dependent server) should agree within ~25% at the paper's
	// operating points, and the MVA variant should never be the more
	// pessimistic one under saturation-free load (queueing beats
	// dropping+retrying).
	for _, s := range []Scheme{Base{}, SoftwareFlush{}, NoCache{}} {
		for _, l := range Levels() {
			p := ParamsAt(l)
			patel, err := EvaluateNetworkAt(s, p, 8)
			if err != nil {
				t.Fatal(err)
			}
			mva, err := EvaluateNetworkMVA(context.Background(), s, p, 8)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(mva.Power-patel.Power) / patel.Power
			if rel > 0.35 {
				t.Errorf("%s/%v: MVA power %g vs Patel %g (%.0f%% apart)",
					s.Name(), l, mva.Power, patel.Power, rel*100)
			}
		}
	}
}

func TestNetworkMVASaturationBandwidthShared(t *testing.T) {
	// Under crushing load both models converge to the same network
	// bandwidth cap N*Forward(1)/b.
	p := ParamsAt(High)
	p.LS, p.Shd = 0.4, 0.42
	patel, err := EvaluateNetworkAt(NoCache{}, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	mva, err := EvaluateNetworkMVA(context.Background(), NoCache{}, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(mva.Power-patel.Power) / patel.Power
	if rel > 0.35 {
		t.Errorf("saturated: MVA %g vs Patel %g", mva.Power, patel.Power)
	}
}

func TestNetworkMVAZeroTraffic(t *testing.T) {
	p := MiddleParams()
	p.LS, p.MsDat, p.MsIns, p.Shd = 0, 0, 0, 0
	pt, err := EvaluateNetworkMVA(context.Background(), Base{}, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pt.Utilization, 1, 1e-12) {
		t.Errorf("traffic-free utilization = %g, want 1", pt.Utilization)
	}
}

func TestNetworkMVAErrors(t *testing.T) {
	if _, err := EvaluateNetworkMVA(context.Background(), Base{}, MiddleParams(), 0); err == nil {
		t.Error("want error for zero stages")
	}
	if _, err := EvaluateNetworkMVA(context.Background(), Dragon{}, MiddleParams(), 4); err == nil {
		t.Error("want error for Dragon on network")
	}
	bad := MiddleParams()
	bad.Shd = 2
	if _, err := EvaluateNetworkMVA(context.Background(), Base{}, bad, 4); err == nil {
		t.Error("want error for invalid params")
	}
}

// TestNetworkMVALargeNetworksMatchPatel checks the network sizes whose
// unnormalized probabilities pass float64's range (from 10 stages at
// MiddleParams): every size up to 2^20 processors solves to a finite
// point, and there the queued model sits within 0.2% of Patel's retry
// fixed point, both near the shared bandwidth cap.
func TestNetworkMVALargeNetworksMatchPatel(t *testing.T) {
	for _, s := range []Scheme{Base{}, NoCache{}, SoftwareFlush{}} {
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			for stages := 12; stages <= 20; stages++ {
				mva, err := EvaluateNetworkMVA(context.Background(), s, MiddleParams(), stages)
				if err != nil {
					t.Fatalf("%d stages: %v", stages, err)
				}
				patel, err := EvaluateNetworkAt(s, MiddleParams(), stages)
				if err != nil {
					t.Fatal(err)
				}
				rel := math.Abs(mva.Power-patel.Power) / patel.Power
				if math.IsNaN(mva.Power) || math.IsInf(mva.Power, 0) || rel > 0.002 {
					t.Errorf("%d stages: MVA power %g vs Patel %g (%.3f%% apart)",
						stages, mva.Power, patel.Power, rel*100)
				}
			}
		})
	}
}
