package core

import (
	"math"
	"testing"
)

func TestAPLToMatchNoCache(t *testing.T) {
	// Software-Flush at apl=1 is below No-Cache and above it at large
	// apl, so a finite crossover exists; verify the bracket.
	p := MiddleParams()
	bus := BusCosts()
	apl, found, err := APLToMatch(NoCache{}, p, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("crossover with No-Cache must exist")
	}
	if apl <= 1 || apl >= 10 {
		t.Errorf("crossover apl = %g, expected a small value in (1, 10)", apl)
	}
	goal, _ := BusPower(NoCache{}, p, bus, 8)
	below, _ := p.With("apl", apl*0.9)
	pwBelow, _ := BusPower(SoftwareFlush{}, below, bus, 8)
	above, _ := p.With("apl", apl*1.1)
	pwAbove, _ := BusPower(SoftwareFlush{}, above, bus, 8)
	if !(pwBelow < goal && pwAbove >= goal) {
		t.Errorf("bracket check failed: below %g, goal %g, above %g", pwBelow, goal, pwAbove)
	}
}

func TestAPLToMatchDragon(t *testing.T) {
	apl, found, err := APLToMatch(Dragon{}, MiddleParams(), BusCosts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("high apl beats Dragon at middle params, crossover must exist")
	}
	if apl < 10 {
		t.Errorf("matching Dragon should need substantial apl, got %g", apl)
	}
}

func TestAPLToMatchBaseImpossible(t *testing.T) {
	// Software-Flush can never beat Base: even infinite apl leaves
	// the unshared-miss cost equal and hence power equal in the limit
	// but the limit is approached from below... it exactly equals
	// Base's unshared-only cost minus the shd-excluded misses, which
	// is ABOVE Base's power? Check: Base misses on shared data too, SF
	// doesn't cache-miss shared data at infinite apl. So SF can beat
	// Base. Instead test against an unreachable target: Base with
	// zero sharing (pure 1/c upper bound beyond any scheme with
	// overhead).
	p := MiddleParams()
	ideal := p
	ideal.MsDat, ideal.MsIns, ideal.Shd = 0, 0, 0
	// Target: Base at a workload with no misses at all = power n.
	_, found, err := APLToMatch(idealScheme{}, p, BusCosts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("matching the ideal machine must be impossible")
	}
}

// idealScheme is a test-only scheme with zero overhead: power = n.
type idealScheme struct{}

func (idealScheme) Name() string { return "Ideal" }
func (idealScheme) Frequencies(Params) (OpFreqs, error) {
	return MakeOpFreqs([]OpFreq{{OpInstr, 1}}), nil
}

func TestMaxShdForPower(t *testing.T) {
	p := MiddleParams()
	bus := BusCosts()
	// No-Cache at 8 processors: how much sharing can it afford while
	// keeping power >= 4?
	shd, found, err := MaxShdForPower(NoCache{}, p, bus, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("shd = 0 easily delivers power 4 at 8 procs")
	}
	if shd <= 0 || shd >= 0.5 {
		t.Errorf("sharing budget = %g, expected small positive", shd)
	}
	at, _ := p.With("shd", shd)
	pw, _ := BusPower(NoCache{}, at, bus, 8)
	if pw < 4*0.999 {
		t.Errorf("power at budget = %g < 4", pw)
	}
	over, _ := p.With("shd", math.Min(1, shd*1.05))
	pwOver, _ := BusPower(NoCache{}, over, bus, 8)
	if pwOver >= 4 {
		t.Errorf("budget not tight: %g sharing still gives %g", shd*1.05, pwOver)
	}
}

func TestMaxShdForPowerUnreachable(t *testing.T) {
	_, found, err := MaxShdForPower(NoCache{}, MiddleParams(), BusCosts(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("4 processors cannot deliver power 5")
	}
}

func TestMaxShdForPowerAlwaysReachable(t *testing.T) {
	// Dragon at 2 processors trivially holds power >= 0.5 even at
	// shd = 1.
	shd, found, err := MaxShdForPower(Dragon{}, MiddleParams(), BusCosts(), 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !found || shd != 1 {
		t.Errorf("got shd=%g found=%v, want 1/true", shd, found)
	}
}

func TestEfficiencyVsBase(t *testing.T) {
	p := MiddleParams()
	bus := BusCosts()
	for _, s := range []Scheme{Dragon{}, SoftwareFlush{}, NoCache{}} {
		eff, err := EfficiencyVsBase(s, p, bus, 16)
		if err != nil {
			t.Fatal(err)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("%s efficiency = %g out of (0,1]", s.Name(), eff)
		}
	}
	effD, _ := EfficiencyVsBase(Dragon{}, p, bus, 16)
	effN, _ := EfficiencyVsBase(NoCache{}, p, bus, 16)
	if effD <= effN {
		t.Errorf("Dragon efficiency %g should beat No-Cache %g", effD, effN)
	}
}

func TestAnalysisErrors(t *testing.T) {
	if _, _, err := APLToMatch(Dragon{}, MiddleParams(), BusCosts(), 0); err == nil {
		t.Error("want error for zero processors")
	}
	if _, _, err := MaxShdForPower(Dragon{}, MiddleParams(), BusCosts(), 0, 1); err == nil {
		t.Error("want error for zero processors")
	}
	bad := MiddleParams()
	bad.LS = 5
	if _, _, err := APLToMatch(Dragon{}, bad, BusCosts(), 4); err == nil {
		t.Error("want error for invalid params")
	}
	if _, err := EfficiencyVsBase(Dragon{}, bad, BusCosts(), 4); err == nil {
		t.Error("want error for invalid params")
	}
}
