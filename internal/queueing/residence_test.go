package queueing

import (
	"math"
	"testing"
)

// residenceGrid is the property grid: every think and per-class service
// value, zero included, against populations up to 512.
var residenceGrid = []float64{0, 0.37, 2.63, 19.37}

const residenceMaxN = 512

// sameResult compares every field of two results bit for bit, except
// QueueLength when skipQ is set.
func sameResult(a, b SingleServerResult, skipQ bool) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Customers == b.Customers && eq(a.Residence, b.Residence) && eq(a.Wait, b.Wait) &&
		eq(a.Throughput, b.Throughput) && eq(a.Utilization, b.Utilization) &&
		(skipQ || eq(a.QueueLength, b.QueueLength))
}

// TestResidenceCurveBitIdenticalFCFS: an FCFS curve stored as its
// residence times alone is an exact encoding. Expanding R(n) with
// ResidenceResult reproduces every field of ExtendSingleServerMVA bit
// for bit, and ExtendResidence resumed from every prefix length
// reproduces the full residence curve.
func TestResidenceCurveBitIdenticalFCFS(t *testing.T) {
	for _, think := range residenceGrid {
		for _, service := range residenceGrid {
			full, err := ExtendSingleServerMVA(think, service, nil, residenceMaxN, nil)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := ExtendResidence(think, service, nil, residenceMaxN, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if got := ResidenceResult(think, service, i+1, r); !sameResult(got, full[i], false) {
					t.Fatalf("think %g service %g n=%d: expanded %+v, solver %+v", think, service, i+1, got, full[i])
				}
			}
			dst := make([]float64, residenceMaxN)
			for split := 0; split <= residenceMaxN; split++ {
				ext, err := ExtendResidence(think, service, rs[:split], residenceMaxN, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ext {
					if math.Float64bits(ext[i]) != math.Float64bits(rs[i]) {
						t.Fatalf("think %g service %g: resumed from %d, R(%d) = %v, full %v", think, service, split, i+1, ext[i], rs[i])
					}
				}
			}
		}
	}
}

// TestResidenceCurveBitIdenticalPriority: PriorityResidence runs the
// same step as PrioritySingleServerMVA, and expanding its R(n) with
// service hi+lo reproduces every field of that solver but QueueLength
// (the per-class sum, which R does not determine).
func TestResidenceCurveBitIdenticalPriority(t *testing.T) {
	for _, think := range residenceGrid {
		for _, hi := range residenceGrid {
			for _, lo := range residenceGrid {
				full, err := PrioritySingleServerMVA(think, hi, lo, residenceMaxN, nil)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := PriorityResidence(think, hi, lo, residenceMaxN, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					if got := ResidenceResult(think, hi+lo, i+1, r); !sameResult(got, full[i], true) {
						t.Fatalf("think %g hi %g lo %g n=%d: expanded %+v, solver %+v", think, hi, lo, i+1, got, full[i])
					}
				}
			}
		}
	}
}

// TestResidenceErrors: the residence solvers share their full solvers'
// domain checks.
func TestResidenceErrors(t *testing.T) {
	for _, c := range []struct {
		think, service float64
		n              int
	}{{1, 1, 0}, {-1, 1, 4}, {1, -1, 4}} {
		if _, err := ExtendResidence(c.think, c.service, nil, c.n, nil); err == nil {
			t.Errorf("ExtendResidence(%g, %g, %d) accepted", c.think, c.service, c.n)
		}
		if _, err := PriorityResidence(c.think, c.service, 0, c.n, nil); err == nil {
			t.Errorf("PriorityResidence(%g, %g, 0, %d) accepted", c.think, c.service, c.n)
		}
	}
}
