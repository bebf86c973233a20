package core

import (
	"testing"
)

func TestEvaluateBusSingleProcessor(t *testing.T) {
	// With one processor there is no contention: U = 1/c.
	pts, err := EvaluateBus(Base{}, MiddleParams(), BusCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Wait != 0 {
		t.Errorf("single processor wait = %g, want 0", p.Wait)
	}
	if !approx(p.Utilization, 1/1.06912, 1e-5) {
		t.Errorf("U = %g, want %g", p.Utilization, 1/1.06912)
	}
	if !approx(p.Power, p.Utilization, 1e-12) {
		t.Errorf("power %g != utilization %g at n=1", p.Power, p.Utilization)
	}
}

func TestEvaluateBusSchemeOrderingMiddle(t *testing.T) {
	// Paper Section 5.1: Base best, Dragon close behind, then
	// Software-Flush (medium apl), then No-Cache — at every machine
	// size at middle parameters.
	p := MiddleParams()
	bus := BusCosts()
	order := []Scheme{Base{}, Dragon{}, SoftwareFlush{}, NoCache{}}
	curves := make([][]BusPoint, len(order))
	for i, s := range order {
		pts, err := EvaluateBus(s, p, bus, 16)
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = pts
	}
	for n := 0; n < 16; n++ {
		for i := 1; i < len(order); i++ {
			if curves[i][n].Power > curves[i-1][n].Power+1e-9 {
				t.Errorf("n=%d: %s power %g exceeds %s power %g",
					n+1, order[i].Name(), curves[i][n].Power,
					order[i-1].Name(), curves[i-1][n].Power)
			}
		}
	}
}

func TestEvaluateBusPowerBelowIdeal(t *testing.T) {
	// All schemes fall below the ideal n-processor line as long as
	// there is any cache activity.
	for _, s := range PaperSchemes() {
		pts, err := EvaluateBus(s, MiddleParams(), BusCosts(), 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Power >= float64(pt.Processors) {
				t.Errorf("%s n=%d: power %g >= ideal", s.Name(), pt.Processors, pt.Power)
			}
		}
	}
}

func TestEvaluateBusDiminishingReturns(t *testing.T) {
	// Section 5.1: the incremental benefit of adding a processor
	// shrinks as the system grows (power is concave in n).
	pts, err := EvaluateBus(NoCache{}, MiddleParams(), BusCosts(), 32)
	if err != nil {
		t.Fatal(err)
	}
	prevGain := pts[0].Power
	for i := 1; i < len(pts); i++ {
		gain := pts[i].Power - pts[i-1].Power
		if gain > prevGain+1e-9 {
			t.Errorf("n=%d: marginal gain %g exceeds previous %g", i+1, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestNoCacheSaturatesBelow2AtHighLoad(t *testing.T) {
	// Section 5.2: with high ls and shd, No-Cache "saturates the bus
	// with a processing power less than 2".
	p := MiddleParams()
	p.LS, p.Shd = 0.4, 0.42
	sat, err := SaturationPower(NoCache{}, p, BusCosts())
	if err != nil {
		t.Fatal(err)
	}
	if sat >= 2 {
		t.Errorf("No-Cache high-load saturation power = %g, want < 2", sat)
	}
	pts, err := EvaluateBus(NoCache{}, p, BusCosts(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if pts[31].Power >= 2 {
		t.Errorf("No-Cache 32-processor power = %g, want < 2", pts[31].Power)
	}
}

func TestSoftwareFlushSaturatesBelow5AtHighLoad(t *testing.T) {
	// Section 5.2: Software-Flush at high ls/shd (medium apl)
	// "saturates the bus with processing power less than 5".
	p := MiddleParams()
	p.LS, p.Shd = 0.4, 0.42
	sat, err := SaturationPower(SoftwareFlush{}, p, BusCosts())
	if err != nil {
		t.Fatal(err)
	}
	if sat >= 5 {
		t.Errorf("Software-Flush high-load saturation power = %g, want < 5", sat)
	}
}

func TestDragonGoodAt16HighLoad(t *testing.T) {
	// Section 5.2: "With high ls and shd, Dragon still gives good
	// performance" — at 16 processors it should retain a large
	// fraction of ideal power while No-Cache collapses.
	p := MiddleParams()
	p.LS, p.Shd = 0.4, 0.42
	dragon, err := BusPower(Dragon{}, p, BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	nocache, err := BusPower(NoCache{}, p, BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if dragon < 8 {
		t.Errorf("Dragon power at 16 procs high load = %g, want >= 8", dragon)
	}
	if dragon < 4*nocache {
		t.Errorf("Dragon (%g) should dominate No-Cache (%g) by a wide margin", dragon, nocache)
	}
}

func TestSoftwareFlushBetweenDragonAndNoCache(t *testing.T) {
	// Section 5.3: SF usually sits between Dragon and No-Cache, but
	// beats Dragon at very high apl and falls below No-Cache at apl=1.
	bus := BusCosts()
	base := MiddleParams()

	mid, err := BusPower(SoftwareFlush{}, base, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	dragon, err := BusPower(Dragon{}, base, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	nocache, err := BusPower(NoCache{}, base, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(nocache < mid && mid < dragon) {
		t.Errorf("mid apl: want No-Cache (%g) < SF (%g) < Dragon (%g)", nocache, mid, dragon)
	}

	pLow, _ := base.With("apl", 1)
	worst, err := BusPower(SoftwareFlush{}, pLow, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if worst >= nocache {
		t.Errorf("apl=1: SF power %g should fall below No-Cache %g", worst, nocache)
	}

	pHigh, _ := base.With("apl", 1000)
	pHigh.MdShd = 0.5
	best, err := BusPower(SoftwareFlush{}, pHigh, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if best <= dragon {
		t.Errorf("apl=1000: SF power %g should beat Dragon %g", best, dragon)
	}
}

func TestBusPowerMonotoneInAPL(t *testing.T) {
	// More references per flush always helps Software-Flush.
	bus := BusCosts()
	prev := 0.0
	for _, apl := range []float64{1, 2, 4, 8, 16, 32, 100} {
		p, err := MiddleParams().With("apl", apl)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := BusPower(SoftwareFlush{}, p, bus, 12)
		if err != nil {
			t.Fatal(err)
		}
		if pw < prev {
			t.Errorf("apl=%g: power %g decreased from %g", apl, pw, prev)
		}
		prev = pw
	}
}

func TestSaturationPowerMatchesLargeN(t *testing.T) {
	// EvaluateBus at very large n should approach 1/b.
	p := MiddleParams()
	p.LS, p.Shd = 0.4, 0.42
	sat, err := SaturationPower(NoCache{}, p, BusCosts())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := EvaluateBus(NoCache{}, p, BusCosts(), 200)
	if err != nil {
		t.Fatal(err)
	}
	got := pts[199].Power
	if got > sat+1e-9 || got < sat*0.98 {
		t.Errorf("200-processor power %g vs saturation bound %g", got, sat)
	}
}

func TestEvaluateBusErrors(t *testing.T) {
	if _, err := EvaluateBus(Base{}, MiddleParams(), BusCosts(), 0); err == nil {
		t.Error("want error for zero processors")
	}
	bad := MiddleParams()
	bad.Shd = -1
	if _, err := EvaluateBus(Base{}, bad, BusCosts(), 4); err == nil {
		t.Error("want error for invalid params")
	}
	if _, err := BusPower(Dragon{}, MiddleParams(), NetworkCosts(3), 4); err == nil {
		t.Error("want error for Dragon on network costs")
	}
}

func TestSaturationPowerNoBusTraffic(t *testing.T) {
	p := MiddleParams()
	p.LS, p.MsDat, p.MsIns, p.Shd = 0, 0, 0, 0
	sat, err := SaturationPower(Base{}, p, BusCosts())
	if err != nil {
		t.Fatal(err)
	}
	if sat != 0 {
		t.Errorf("bus-free workload saturation sentinel = %g, want 0", sat)
	}
}

// TestBusResidenceMatchesEvaluateBus: every registered scheme's curve,
// stored as residence times and expanded by BusPointFromResidence,
// reproduces EvaluateBus point for point, at every Table 7 level and
// populations up to 512 — and for FCFS schemes, resumed from every
// prefix length.
func TestBusResidenceMatchesEvaluateBus(t *testing.T) {
	const n = 512
	costs := BusCosts()
	for _, info := range RegisteredSchemes() {
		for _, level := range Levels() {
			s, p := info.Scheme, ParamsAt(level)
			want, err := EvaluateBus(s, p, costs, n)
			if err != nil {
				t.Fatalf("%s: %v", SchemeKey(s), err)
			}
			d, err := ComputeDemand(s, p, costs)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := BusResidence(d, nil, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if got := BusPointFromResidence(d, i+1, r); got != want[i] {
					t.Fatalf("%s %v n=%d: %+v, EvaluateBus %+v", SchemeKey(s), level, i+1, got, want[i])
				}
			}
			if d.Priority > 0 {
				continue
			}
			dst := make([]float64, n)
			for split := 0; split <= n; split++ {
				ext, err := BusResidence(d, rs[:split], n, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ext {
					if ext[i] != rs[i] {
						t.Fatalf("%s %v: resumed from %d, R(%d) = %v, full %v", SchemeKey(s), level, split, i+1, ext[i], rs[i])
					}
				}
			}
		}
	}
}

// TestComputeDemandAllocFree: demand is computed on every model query,
// so it must not allocate — the scheme's frequency list comes back by
// value, not as a slice escaping through the Scheme interface.
func TestComputeDemandAllocFree(t *testing.T) {
	costs := BusCosts()
	p := MiddleParams()
	for _, info := range RegisteredSchemes() {
		s := info.Scheme
		var err error
		if avg := testing.AllocsPerRun(100, func() { _, err = ComputeDemand(s, p, costs) }); avg != 0 {
			t.Errorf("%s: ComputeDemand allocates %.1f/op, want 0", SchemeKey(s), avg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
