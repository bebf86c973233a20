package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// freqMap collapses a frequency table to op -> freq, dropping
// zero-frequency entries so tables that differ only in listing an
// absent operation compare equal.
func extFreqMap(t *testing.T, s Scheme, p Params) map[Op]float64 {
	t.Helper()
	fs, err := s.Frequencies(p)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	m := map[Op]float64{}
	for _, f := range fs.List() {
		if f.Freq != 0 {
			m[f.Op] += f.Freq
		}
	}
	return m
}

// testWorkloads is a spread of operating points for table identities.
func testWorkloads(t *testing.T) []Params {
	t.Helper()
	out := []Params{ParamsAt(Low), MiddleParams(), ParamsAt(High)}
	p, err := MiddleParams().With("shd", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, p)
	return out
}

// TestWriteInvalidateFrequencies checks the conservation identities of
// the Write-Invalidate table: memory- plus cache-supplied data misses
// equal total data misses (base misses + invalidation re-fetches), the
// invalidation rate is the remote-present-store rate, and OpInstr is
// present with frequency 1.
func TestWriteInvalidateFrequencies(t *testing.T) {
	for _, p := range testWorkloads(t) {
		m := extFreqMap(t, WriteInvalidate{}, p)
		if m[OpInstr] != 1 {
			t.Fatalf("OpInstr freq = %g, want 1", m[OpInstr])
		}
		inv := p.LS * p.Shd * p.WR * p.OPres
		if got := m[OpInvalidate]; math.Abs(got-inv) > 1e-15 {
			t.Errorf("invalidate freq = %g, want %g", got, inv)
		}
		misses := m[OpCleanMissMem] + m[OpDirtyMissMem] + m[OpCleanMissCache] + m[OpDirtyMissCache]
		want := p.LS*p.MsDat + inv + p.MsIns
		if math.Abs(misses-want) > 1e-12 {
			t.Errorf("total misses %g, want data+refetch+instr %g", misses, want)
		}
		// Invalidation pressure must cost something: more re-fetch misses
		// than Base at the same workload.
		base := extFreqMap(t, Base{}, p)
		baseMisses := base[OpCleanMissMem] + base[OpDirtyMissMem]
		if inv > 0 && misses <= baseMisses {
			t.Errorf("misses %g not above Base's %g despite invalidations", misses, baseMisses)
		}
	}
}

// TestHybridUpdateEndpoints pins the knob's degenerate points: u = 1
// reproduces Dragon's frequency table exactly and u = 0 reproduces
// Write-Invalidate's, so the hybrid interpolates between the two
// policies rather than being a third unrelated model.
func TestHybridUpdateEndpoints(t *testing.T) {
	for _, p := range testWorkloads(t) {
		dragon := extFreqMap(t, Dragon{}, p)
		asDragon := extFreqMap(t, HybridUpdate{UpdateFrac: 1}, p)
		for op, want := range dragon {
			if got := asDragon[op]; got != want {
				t.Errorf("u=1: op %v freq %g != Dragon's %g", op, got, want)
			}
		}
		if len(asDragon) != len(dragon) {
			t.Errorf("u=1: %d ops vs Dragon's %d", len(asDragon), len(dragon))
		}
		winv := extFreqMap(t, WriteInvalidate{}, p)
		asWinv := extFreqMap(t, HybridUpdate{UpdateFrac: 0}, p)
		for op, want := range winv {
			if got := asWinv[op]; got != want {
				t.Errorf("u=0: op %v freq %g != Write-Invalidate's %g", op, got, want)
			}
		}
		if len(asWinv) != len(winv) {
			t.Errorf("u=0: %d ops vs Write-Invalidate's %d", len(asWinv), len(winv))
		}
	}
}

// TestHybridUpdateValidation: the knob is a probability; out-of-range
// values error with ErrInvalidParams through every evaluation path.
func TestHybridUpdateValidation(t *testing.T) {
	for _, u := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := ComputeDemand(HybridUpdate{UpdateFrac: u}, MiddleParams(), BusCosts()); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("updatefrac %g: err = %v, want ErrInvalidParams", u, err)
		}
	}
}

// TestPriorityBusDelegation covers the wrapper contract: frequencies,
// params-used, and naming delegate to the inner scheme; a zero value
// defaults to Software-Flush; the demand splits and the split is
// consistent with the high-priority op set.
func TestPriorityBusDelegation(t *testing.T) {
	p := MiddleParams()
	var zero PriorityBus
	if zero.Name() != "Software-Flush+Prio" {
		t.Errorf("zero-value Name = %q", zero.Name())
	}
	inner := extFreqMap(t, SoftwareFlush{}, p)
	wrapped := extFreqMap(t, zero, p)
	for op, want := range inner {
		if wrapped[op] != want {
			t.Errorf("op %v freq %g != inner %g", op, wrapped[op], want)
		}
	}

	d, err := ComputeDemand(zero, p, BusCosts())
	if err != nil {
		t.Fatal(err)
	}
	if d.Priority <= 0 {
		t.Fatal("flagship registration has zero high-priority demand; the discipline would be a no-op")
	}
	// The split must equal the sum of high-priority op contributions.
	costs := BusCosts()
	var wantHi float64
	fs, err := zero.Frequencies(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.List() {
		if zero.HighPriority(f.Op) {
			wantHi += f.Freq * costs.Cost(f.Op).Interconnect
		}
	}
	if math.Abs(d.Priority-wantHi) > 1e-15 {
		t.Errorf("Priority %g != sum of high-priority bus time %g", d.Priority, wantHi)
	}
	hi, lo := d.PrioritySplit()
	if math.Abs(hi+lo-d.Interconnect) > 1e-12 || hi != d.Priority || lo < 0 {
		t.Errorf("PrioritySplit() = (%g, %g), demand (%g, prio %g)", hi, lo, d.Interconnect, d.Priority)
	}

	// A FCFS scheme has no split and its demand carries no priority.
	df, err := ComputeDemand(SoftwareFlush{}, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	if df.Priority != 0 {
		t.Errorf("FCFS scheme demand has Priority %g", df.Priority)
	}
	if df.CPU != d.CPU || df.Interconnect != d.Interconnect {
		t.Errorf("wrapping changed the workload model: (%g, %g) vs (%g, %g)",
			d.CPU, d.Interconnect, df.CPU, df.Interconnect)
	}

	// Wrapping a knobbed inner keeps the knob in the cache label.
	wrapped2 := PriorityBus{Inner: Hybrid{LockFrac: 0.4}}
	if got := wrapped2.String(); got != "Hybrid(lock=0.40)+Prio" {
		t.Errorf("String() = %q", got)
	}
}

// TestPriorityBusNetworkRejected: every network evaluation path must
// refuse a priority-wrapped scheme with ErrUnsupported — the network
// contention model has no priority service discipline.
func TestPriorityBusNetworkRejected(t *testing.T) {
	p := MiddleParams()
	s := PriorityBus{Inner: SoftwareFlush{}}
	if _, err := EvaluateNetworkAt(s, p, 4); !errors.Is(err, ErrUnsupported) {
		t.Errorf("EvaluateNetworkAt: %v, want ErrUnsupported", err)
	}
	if _, err := EvaluatePacketNetwork(s, p, 4); !errors.Is(err, ErrUnsupported) {
		t.Errorf("EvaluatePacketNetwork: %v, want ErrUnsupported", err)
	}
	if _, err := EvaluateNetworkMVA(context.Background(), s, p, 4); !errors.Is(err, ErrUnsupported) {
		t.Errorf("EvaluateNetworkMVA: %v, want ErrUnsupported", err)
	}
	// Snoopy extensions are rejected too (their ops are undefined in the
	// network tables), with ErrUnsupported for advisor skipping.
	if _, err := EvaluateNetworkAt(WriteInvalidate{}, p, 4); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Write-Invalidate on network: %v, want ErrUnsupported", err)
	}
	if _, err := EvaluateNetworkAt(HybridUpdate{UpdateFrac: 0.5}, p, 4); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Hybrid-Update on network: %v, want ErrUnsupported", err)
	}
}
