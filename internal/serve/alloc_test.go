//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make testing.AllocsPerRun counts
// unreliable, so `make alloc-check` runs them without instrumentation.

package serve

import "testing"

// TestDecodeSweepAllocs pins decoding one 64-point cold_sweep-shaped
// /v1/sweep body: the points slice and its growth, one string per
// scheme name, and one boxed knobbed scheme per Hybrid or Hybrid-Update
// point — no per-field or per-object allocations.
func TestDecodeSweepAllocs(t *testing.T) {
	body := coldSweepBody()
	var err error
	avg := testing.AllocsPerRun(20, func() {
		_, _, err = DecodeSweep(body)
	})
	if err != nil {
		t.Fatal(err)
	}
	const pin = 86
	if avg > pin {
		t.Errorf("decoding a 64-point sweep allocates %.0f times, pin %d", avg, pin)
	}
}
