package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func demand(t *testing.T, s Scheme, p Params, costs *CostTable) Demand {
	t.Helper()
	d, err := ComputeDemand(s, p, costs)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return d
}

// Hand-computed anchors at the all-middle workload of Table 7 with the
// Table 1 bus costs.
func TestDemandMiddleAnchors(t *testing.T) {
	p := MiddleParams()
	bus := BusCosts()
	cases := []struct {
		scheme Scheme
		c, b   float64
	}{
		{Base{}, 1.06912, 0.04992},
		{NoCache{}, 1.37653, 0.28548},
		{SoftwareFlush{}, 1.1774492, 0.1198973},
		{Dragon{}, 1.1133895, 0.0645645},
	}
	for _, tc := range cases {
		d := demand(t, tc.scheme, p, bus)
		if !approx(d.CPU, tc.c, 1e-5) {
			t.Errorf("%s: c = %.7f, want %.7f", tc.scheme.Name(), d.CPU, tc.c)
		}
		if !approx(d.Interconnect, tc.b, 1e-5) {
			t.Errorf("%s: b = %.7f, want %.7f", tc.scheme.Name(), d.Interconnect, tc.b)
		}
	}
}

func TestBaseFrequenciesTable3(t *testing.T) {
	p := MiddleParams()
	fr, err := Base{}.Frequencies(p)
	if err != nil {
		t.Fatal(err)
	}
	m := freqMap(fr.List())
	miss := p.LS*p.MsDat + p.MsIns
	if !approx(m[OpCleanMissMem], miss*(1-p.MD), 1e-12) {
		t.Errorf("clean miss = %g", m[OpCleanMissMem])
	}
	if !approx(m[OpDirtyMissMem], miss*p.MD, 1e-12) {
		t.Errorf("dirty miss = %g", m[OpDirtyMissMem])
	}
	if m[OpInstr] != 1 {
		t.Errorf("instr freq = %g, want 1", m[OpInstr])
	}
}

func TestNoCacheFrequenciesTable4(t *testing.T) {
	p := MiddleParams()
	m := freqMap(mustFreqs(t, NoCache{}, p))
	if !approx(m[OpReadThrough], p.LS*p.Shd*(1-p.WR), 1e-12) {
		t.Errorf("read-through = %g", m[OpReadThrough])
	}
	if !approx(m[OpWriteThrough], p.LS*p.Shd*p.WR, 1e-12) {
		t.Errorf("write-through = %g", m[OpWriteThrough])
	}
	// Only unshared data can miss.
	miss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns
	if !approx(m[OpCleanMissMem]+m[OpDirtyMissMem], miss, 1e-12) {
		t.Errorf("total miss = %g, want %g", m[OpCleanMissMem]+m[OpDirtyMissMem], miss)
	}
}

func TestSoftwareFlushFrequenciesTable5(t *testing.T) {
	p := MiddleParams()
	m := freqMap(mustFreqs(t, SoftwareFlush{}, p))
	f := p.LS * p.Shd / p.APL
	if !approx(m[OpCleanFlush], f*(1-p.MdShd), 1e-12) {
		t.Errorf("clean flush = %g, want %g", m[OpCleanFlush], f*(1-p.MdShd))
	}
	if !approx(m[OpDirtyFlush], f*p.MdShd, 1e-12) {
		t.Errorf("dirty flush = %g, want %g", m[OpDirtyFlush], f*p.MdShd)
	}
	// The re-fetch effect: clean misses exceed the unshared-only rate
	// by exactly one miss per flush.
	unsharedMiss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns*(1+f)
	if !approx(m[OpCleanMissMem], unsharedMiss*(1-p.MD)+f, 1e-12) {
		t.Errorf("clean miss = %g, want %g", m[OpCleanMissMem], unsharedMiss*(1-p.MD)+f)
	}
}

func TestSoftwareFlushAPLOne(t *testing.T) {
	// At apl = 1 every shared reference flushes and re-misses; the
	// paper says both CPU and bus demand then exceed No-Cache's.
	p, err := MiddleParams().With("apl", 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := BusCosts()
	sf := demand(t, SoftwareFlush{}, p, bus)
	nc := demand(t, NoCache{}, MiddleParams(), bus)
	if sf.CPU <= nc.CPU {
		t.Errorf("apl=1: SF cpu %g should exceed No-Cache cpu %g", sf.CPU, nc.CPU)
	}
	if sf.Interconnect <= nc.Interconnect {
		t.Errorf("apl=1: SF bus %g should exceed No-Cache bus %g", sf.Interconnect, nc.Interconnect)
	}
}

func TestSoftwareFlushHighAPLApproachesNoSharingCost(t *testing.T) {
	// As apl grows the sharing overhead vanishes: demand tends to the
	// unshared-miss-only level.
	p, err := MiddleParams().With("apl", 1e9)
	if err != nil {
		t.Fatal(err)
	}
	d := demand(t, SoftwareFlush{}, p, BusCosts())
	miss := p.LS*p.MsDat*(1-p.Shd) + p.MsIns
	wantC := 1 + miss*(1-p.MD)*10 + miss*p.MD*14
	if !approx(d.CPU, wantC, 1e-6) {
		t.Errorf("apl->inf: c = %g, want %g", d.CPU, wantC)
	}
}

func TestDragonFrequenciesTable6(t *testing.T) {
	p := MiddleParams()
	m := freqMap(mustFreqs(t, Dragon{}, p))
	bcast := p.LS * p.Shd * p.WR * p.OPres
	if !approx(m[OpWriteBroadcast], bcast, 1e-12) {
		t.Errorf("write broadcast = %g, want %g", m[OpWriteBroadcast], bcast)
	}
	if !approx(m[OpCycleSteal], bcast*p.NShd, 1e-12) {
		t.Errorf("cycle steal = %g, want %g", m[OpCycleSteal], bcast*p.NShd)
	}
	// Total data+instruction misses are conserved: splitting between
	// memory and cache sources must not change the total.
	totalMiss := p.LS*p.MsDat + p.MsIns
	got := m[OpCleanMissMem] + m[OpDirtyMissMem] + m[OpCleanMissCache] + m[OpDirtyMissCache]
	if !approx(got, totalMiss, 1e-12) {
		t.Errorf("total misses = %g, want %g", got, totalMiss)
	}
	// Cache-supplied fraction is shd*(1-oclean) of data misses.
	cacheMiss := p.LS * p.MsDat * p.Shd * (1 - p.OClean)
	if !approx(m[OpCleanMissCache]+m[OpDirtyMissCache], cacheMiss, 1e-12) {
		t.Errorf("cache-supplied misses = %g, want %g", m[OpCleanMissCache]+m[OpDirtyMissCache], cacheMiss)
	}
}

func TestSchemesIdenticalWithoutSharing(t *testing.T) {
	// Paper Section 5.1: "If shd = 0 the schemes are identical" (with
	// apl irrelevant and Dragon's extras vanishing).
	p := MiddleParams()
	p.Shd = 0
	bus := BusCosts()
	base := demand(t, Base{}, p, bus)
	for _, s := range []Scheme{NoCache{}, SoftwareFlush{}, Dragon{}} {
		d := demand(t, s, p, bus)
		if !approx(d.CPU, base.CPU, 1e-12) || !approx(d.Interconnect, base.Interconnect, 1e-12) {
			t.Errorf("%s: demand (%g,%g) != base (%g,%g) at shd=0",
				s.Name(), d.CPU, d.Interconnect, base.CPU, base.Interconnect)
		}
	}
}

func TestBaseIsCheapest(t *testing.T) {
	// Base incurs no coherence overhead, so it lower-bounds c and b
	// for every scheme at every Table 7 level.
	bus := BusCosts()
	for _, l := range Levels() {
		p := ParamsAt(l)
		base := demand(t, Base{}, p, bus)
		for _, s := range []Scheme{NoCache{}, SoftwareFlush{}, Dragon{}} {
			d := demand(t, s, p, bus)
			if d.CPU < base.CPU-1e-12 {
				t.Errorf("level %v: %s cpu %g below base %g", l, s.Name(), d.CPU, base.CPU)
			}
		}
	}
}

func TestComputeDemandInvariants(t *testing.T) {
	// Property: for random valid params, every scheme yields c >= 1,
	// 0 <= b <= c, and all frequencies non-negative.
	schemes := []Scheme{Base{}, NoCache{}, SoftwareFlush{}, Dragon{}, Directory{}}
	bus := BusCosts()
	f := func(a, b2, c2, d2, e, f2, g, h, i, j uint8, k uint8) bool {
		p := Params{
			LS:     float64(a) / 255,
			MsDat:  float64(b2) / 255 * 0.1,
			MsIns:  float64(c2) / 255 * 0.01,
			MD:     float64(d2) / 255,
			Shd:    float64(e) / 255,
			WR:     float64(f2) / 255,
			APL:    1 + float64(g)/255*30,
			MdShd:  float64(h) / 255,
			OClean: float64(i) / 255,
			OPres:  float64(j) / 255,
			NShd:   float64(k) / 255 * 7,
		}
		for _, s := range schemes {
			freqs, err := s.Frequencies(p)
			if err != nil {
				return false
			}
			for _, fr := range freqs.List() {
				if fr.Freq < 0 {
					return false
				}
			}
			d, err := ComputeDemand(s, p, bus)
			if err != nil {
				return false
			}
			if d.CPU < 1 || d.Interconnect < 0 || d.Interconnect > d.CPU {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestComputeDemandRejectsInvalidParams(t *testing.T) {
	p := MiddleParams()
	p.LS = 2
	if _, err := ComputeDemand(Base{}, p, BusCosts()); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("want ErrInvalidParams, got %v", err)
	}
}

func TestDragonUnsupportedOnNetwork(t *testing.T) {
	_, err := ComputeDemand(Dragon{}, MiddleParams(), NetworkCosts(4))
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("want ErrUnsupported, got %v", err)
	}
}

func TestSoftwareSchemesSupportedOnNetwork(t *testing.T) {
	net := NetworkCosts(8)
	for _, s := range []Scheme{Base{}, NoCache{}, SoftwareFlush{}, Directory{}} {
		if _, err := ComputeDemand(s, MiddleParams(), net); err != nil {
			t.Errorf("%s on network: %v", s.Name(), err)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{
		"base", "nocache", "swflush", "dragon", "directory", "No-Cache", "Software-Flush",
		"hybrid", "winv", "mesi", "hybrid-update", "swflush-prio", "priority",
	} {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := SchemeByName("firefly"); err == nil {
		t.Error("want error for unknown name")
	}
}

func TestPaperSchemes(t *testing.T) {
	s := PaperSchemes()
	if len(s) != 4 {
		t.Fatalf("got %d schemes, want 4", len(s))
	}
	if s[0].Name() != "Base" || s[1].Name() != "Dragon" {
		t.Error("presentation order wrong")
	}
}

func freqMap(fr []OpFreq) map[Op]float64 {
	m := make(map[Op]float64, len(fr))
	for _, f := range fr {
		m[f.Op] += f.Freq
	}
	return m
}

func mustFreqs(t *testing.T, s Scheme, p Params) []OpFreq {
	t.Helper()
	fr, err := s.Frequencies(p)
	if err != nil {
		t.Fatal(err)
	}
	return fr.List()
}
