package swcc_test

import (
	"math"
	"strings"
	"testing"

	"swcc"
)

// TestQuickstart walks the README quick-start path through the public
// API only.
func TestQuickstart(t *testing.T) {
	p := swcc.MiddleParams()
	pts, err := swcc.EvaluateBus(swcc.Dragon{}, p, swcc.BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[15].Power < 10 || pts[15].Power > 16 {
		t.Errorf("Dragon 16-proc power = %.2f, expected strong", pts[15].Power)
	}
}

// TestEndToEndValidation is the full pipeline through the facade:
// generate trace -> measure -> simulate -> model -> compare.
func TestEndToEndValidation(t *testing.T) {
	cfg, err := swcc.TracePreset("pops")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstrPerCPU = 40_000
	tr, err := swcc.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := swcc.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	m, err := swcc.MeasureParams(tr, cache, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := swcc.Simulate(swcc.SimConfig{
		NCPU: tr.NCPU, Cache: cache, Protocol: swcc.ProtoDragon,
		WarmupRefs: len(tr.Refs) / 2,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	model, err := swcc.BusPower(swcc.Dragon{}, m.Params, swcc.BusCosts(), tr.NCPU)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Power()-model) / res.Power(); rel > 0.15 {
		t.Errorf("model %.3f vs sim %.3f power: %.0f%% apart", model, res.Power(), rel*100)
	}
}

// TestFacadeNewRef builds a hand-written trace through the facade alone
// and simulates it: a store then a reload of one block is two
// references, one miss.
func TestFacadeNewRef(t *testing.T) {
	r := swcc.NewRef(3, swcc.RefWrite, swcc.MaxAddr, true)
	if r.CPU() != 3 || r.Kind() != swcc.RefWrite || r.Addr() != swcc.MaxAddr || !r.Shared() {
		t.Errorf("NewRef reads back as %s", r)
	}
	tr := &swcc.Trace{NCPU: 1, Refs: []swcc.Ref{
		swcc.NewRef(0, swcc.RefWrite, 0x100, false),
		swcc.NewRef(0, swcc.RefRead, 0x104, false),
	}}
	res, err := swcc.Simulate(swcc.SimConfig{
		NCPU: 1, Cache: swcc.CacheConfig{Size: 1024, BlockSize: 16, Assoc: 1}, Protocol: swcc.ProtoBase,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.PerCPU[0]; st.Writes != 1 || st.Reads != 1 || st.DataMisses != 1 {
		t.Errorf("stats %+v, want one write, one read, one miss", st)
	}
}

func TestFacadeSchemes(t *testing.T) {
	if len(swcc.Schemes()) != 4 {
		t.Error("want 4 paper schemes")
	}
	s, err := swcc.SchemeByName("swflush")
	if err != nil || s.Name() != "Software-Flush" {
		t.Errorf("SchemeByName: %v, %v", s, err)
	}
	if len(swcc.Fields()) != 11 {
		t.Error("want 11 fields")
	}
	if len(swcc.TracePresets()) != 6 {
		t.Error("want 6 presets")
	}
}

func TestFacadeNetwork(t *testing.T) {
	pt, err := swcc.EvaluateNetworkAt(swcc.SoftwareFlush{}, swcc.MiddleParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Processors != 256 {
		t.Errorf("processors = %d", pt.Processors)
	}
	u, err := swcc.NetworkUtilization(8, 0.03, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u < 0.3 || u > 0.7 {
		t.Errorf("anchor utilization = %.3f", u)
	}
	pk, err := swcc.EvaluatePacketNetwork(swcc.NoCache{}, swcc.MiddleParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Power <= 0 {
		t.Error("packet network power")
	}
	nets, err := swcc.EvaluateNetwork(swcc.Base{}, swcc.MiddleParams(), 4)
	if err != nil || len(nets) != 4 {
		t.Errorf("EvaluateNetwork: %d points, %v", len(nets), err)
	}
	if _, err := swcc.ComputeDemand(swcc.Dragon{}, swcc.MiddleParams(), swcc.NetworkCosts(4)); err == nil {
		t.Error("Dragon on network must fail")
	}
}

func TestFacadeNetworkSimulator(t *testing.T) {
	res, err := swcc.SimulateNetwork(swcc.NetSimConfig{
		Stages: 4, Think: 100, Hold: 12, Cycles: 20_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Utilization >= 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	model, err := swcc.NetworkUtilization(4, 1.0/100, 12-2*4)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Utilization - model; diff > 0.1 || diff < -0.1 {
		t.Errorf("sim %g vs model %g diverge", res.Utilization, model)
	}
}

func TestFacadeSimulatorMedia(t *testing.T) {
	cfg := swcc.DefaultTraceConfig()
	cfg.NCPU = 2
	cfg.InstrPerCPU = 2000
	tr, err := swcc.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := swcc.CacheConfig{Size: 16 * 1024, BlockSize: 16, Assoc: 2}
	res, err := swcc.Simulate(swcc.SimConfig{
		NCPU: 2, Cache: cache, Protocol: swcc.ProtoSoftwareFlush, Medium: swcc.MediumNetwork,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power() <= 0 {
		t.Error("network-medium power")
	}
	if _, err := swcc.Simulate(swcc.SimConfig{
		NCPU: 2, Cache: cache, Protocol: swcc.ProtoDragon, Medium: swcc.MediumNetwork,
	}, tr); err == nil {
		t.Error("Dragon on simulated network must fail")
	}
}

func TestFacadeSensitivity(t *testing.T) {
	tab, err := swcc.AnalyzeSensitivity(swcc.Schemes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ranked := tab.MostSensitive("Software-Flush")
	if ranked[0].Param != "apl" {
		t.Errorf("most sensitive = %s", ranked[0].Param)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(swcc.Experiments()) < 19 {
		t.Errorf("registry has %d experiments", len(swcc.Experiments()))
	}
	ds, err := swcc.RunExperiment("fig5", swcc.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ds.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Dragon") {
		t.Error("render missing scheme names")
	}
}

// TestFacadeSurface touches every remaining facade entry point so the
// public API stays wired to the internals.
func TestFacadeSurface(t *testing.T) {
	p := swcc.MiddleParams()
	if swcc.BusCostsForBlock(8).Cost(0).CPU != 1 {
		t.Error("BusCostsForBlock instruction cost")
	}
	if !swcc.NetworkCostsForBlock(4, 8).Defines(1) {
		t.Error("NetworkCostsForBlock clean miss undefined")
	}
	ranked, err := swcc.RankBus(swcc.Schemes(), p, swcc.BusCosts(), 8)
	if err != nil || len(ranked) != 4 {
		t.Fatalf("RankBus: %d, %v", len(ranked), err)
	}
	netRanked, err := swcc.RankNetwork(swcc.Schemes(), p, 6)
	if err != nil || len(netRanked) != 3 {
		t.Fatalf("RankNetwork: %d, %v", len(netRanked), err)
	}
	mva, err := swcc.EvaluateNetworkMVA(swcc.SoftwareFlush{}, p, 6)
	if err != nil || mva.Power <= 0 {
		t.Fatalf("EvaluateNetworkMVA: %+v, %v", mva, err)
	}
	shd, found, err := swcc.MaxShdForPower(swcc.Dragon{}, p, swcc.BusCosts(), 8, 6)
	if err != nil || !found || shd <= 0 {
		t.Fatalf("MaxShdForPower: %g %v %v", shd, found, err)
	}
	eff, err := swcc.EfficiencyVsBase(swcc.Dragon{}, p, swcc.BusCosts(), 8)
	if err != nil || eff <= 0 || eff > 1 {
		t.Fatalf("EfficiencyVsBase: %g, %v", eff, err)
	}
	cfg := swcc.DefaultTraceConfig()
	cfg.NCPU = 2
	cfg.InstrPerCPU = 3000
	tr, err := swcc.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := swcc.MeasureStability(tr, swcc.CacheConfig{Size: 16 * 1024, BlockSize: 16, Assoc: 2}, 0.25)
	if err != nil || len(st) != 11 {
		t.Fatalf("MeasureStability: %d, %v", len(st), err)
	}
	if _, err := swcc.ComputeDemand(swcc.Hybrid{LockFrac: 0.2}, p, swcc.BusCosts()); err != nil {
		t.Fatalf("Hybrid demand: %v", err)
	}
	if nets, err := swcc.EvaluateNetwork(swcc.Directory{}, p, 3); err != nil || len(nets) != 3 {
		t.Fatalf("EvaluateNetwork Directory: %v", err)
	}
}

func TestFacadeLevels(t *testing.T) {
	lo, hi := swcc.ParamsAt(swcc.Low), swcc.ParamsAt(swcc.High)
	if lo.Shd >= hi.Shd {
		t.Error("levels not ordered")
	}
	if swcc.Mid.String() != "mid" {
		t.Error("level string")
	}
}
