package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"swcc/internal/core"
	"swcc/internal/experiments"
)

// canonicalKey is the identity the evaluator caches a query under:
// scheme (with its knob) and the parameters that scheme reads.
func canonicalKey(t *testing.T, q query) string {
	t.Helper()
	s, p, err := q.resolve()
	if err != nil {
		t.Fatalf("%s: %v", q.body(), err)
	}
	label := s.Name()
	if str, ok := s.(interface{ String() string }); ok {
		label = str.String()
	}
	data, _ := json.Marshal(core.CanonicalParams(s, p))
	return label + string(data)
}

func TestColdStreamDeterministic(t *testing.T) {
	a, b := newColdStream(7, 0), newColdStream(7, 0)
	for i := 0; i < 20; i++ {
		if sweepBody(a.batch(coldBatch)) != sweepBody(b.batch(coldBatch)) {
			t.Fatalf("batch %d differs between two streams with one seed", i)
		}
	}
	if sweepBody(newColdStream(7, 0).batch(coldBatch)) == sweepBody(newColdStream(8, 0).batch(coldBatch)) {
		t.Fatal("seeds 7 and 8 give the same first batch")
	}
}

// TestColdKeysNeverRepeat: across both client streams and the set-up
// stream, a key repeats only as a deliberate re-ask of the previous
// batch at a larger machine size.
func TestColdKeysNeverRepeat(t *testing.T) {
	seen := map[string]int{} // key -> procs when first asked
	reasks, points := 0, 0
	for _, stream := range []uint64{0, 1, setupStream} {
		cs := newColdStream(3, stream)
		prev := map[string]int{}
		for b := 0; b < 200; b++ {
			cur := map[string]int{}
			for _, q := range cs.batch(coldBatch) {
				points++
				if err := (func() error { _, err := q.reference(); return err })(); err != nil {
					t.Fatalf("%s: %v", q.body(), err)
				}
				k := canonicalKey(t, q)
				if _, dup := cur[k]; dup {
					t.Fatalf("key repeats within one batch: %s", q.body())
				}
				cur[k] = q.Procs
				first, again := seen[k]
				if !again {
					seen[k] = q.Procs
					continue
				}
				p, inPrev := prev[k]
				if !inPrev || q.Procs <= p || q.Procs <= first {
					t.Fatalf("key repeats outside a re-ask: %s", q.body())
				}
				reasks++
			}
			prev = cur
		}
	}
	if share := float64(reasks) / float64(points); share < 0.08 || share > 0.16 {
		t.Fatalf("re-ask share %.3f, want about 1/%d", share, reaskEvery)
	}
}

// TestHotScheduleDrawsOnlyPoolKeys: every timed gw_hot request is one of
// the pooled requests primed during set-up, and the schedule is fixed
// by the seed.
func TestHotScheduleDrawsOnlyPoolKeys(t *testing.T) {
	reqs, pool := hotRequests(5)
	again, _ := hotRequests(5)
	if len(reqs) != 2*hotPool+hotBatches || len(pool) != hotPool {
		t.Fatalf("pool sizes %d/%d", len(reqs), len(pool))
	}
	keys := map[string]bool{}
	for i, q := range pool {
		keys[canonicalKey(t, q)] = true
		if reqs[i].Body != again[i].Body {
			t.Fatal("pool differs between two builds with one seed")
		}
	}
	if len(keys) != hotPool {
		t.Fatalf("%d distinct pool keys, want %d", len(keys), hotPool)
	}
	if hotPool <= hotCacheCap || hotPool > 2*hotCacheCap {
		t.Fatal("the pool must exceed one backend's cap and fit the fleet")
	}
	r1, r2 := newRNG(5, 0x100), newRNG(5, 0x100)
	counts := [3]int{}
	for n := 0; n < 10000; n++ {
		i := hotPick(r1)
		if i != hotPick(r2) {
			t.Fatal("schedule differs between two runs with one seed")
		}
		if i < 0 || i >= len(reqs) {
			t.Fatalf("request index %d outside the pool", i)
		}
		counts[i/hotPool]++
	}
	if counts[0] < 6300 || counts[1] < 1450 || counts[2] < 1450 {
		t.Fatalf("mix %v, want about 4:1:1", counts)
	}
}

// TestLatHistQuantiles: the histogram's quantiles stay within a bucket
// (under 0.8%) of the exact nearest-rank quantiles.
func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	var exact []float64
	r := newRNG(9, 0)
	for i := 0; i < 20000; i++ {
		ns := 50 + r.intn(3_000_000) + r.intn(10)*r.intn(50_000_000)
		h.add(time.Duration(ns))
		exact = append(exact, float64(ns))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := quantile(exact, q)
		if got := h.quantile(q); math.Abs(got-want) > want/128 {
			t.Errorf("q%.2f: histogram %v, exact %v", q, got, want)
		}
	}
	for v := uint64(0); v < 1<<20; v += 7 {
		lo, width := histBucket(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Fatalf("%d ns falls outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, perfbench reports %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
	res := &result{}
	win := &window{dur: time.Second, elapsed: 1}
	win.parts[0].lat.add(time.Millisecond)
	win.parts[0].requests = 1
	addEndToEnd(res, []float64{1}, win, false)
	if len(b.EndToEnd) != len(res.Metrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench reports %d", len(b.EndToEnd), len(res.Metrics))
	}
	for i, m := range res.Metrics {
		if b.EndToEnd[i].Name != m.Name || b.EndToEnd[i].Unit != m.Unit {
			t.Errorf("end_to_end[%d] = %v, perfbench reports %s %s", i, b.EndToEnd[i], m.Name, m.Unit)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "gw_hot,cold_sweep,paper_artifacts" {
		t.Errorf("workloads %s", got)
	}
}

// TestEveryArtifactIsChecked: each registered experiment has a golden
// file or a reference digest, and the simulation-backed ones are
// exactly the digested ones.
func TestEveryArtifactIsChecked(t *testing.T) {
	data, err := os.ReadFile("testdata/artifact_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	if err := json.Unmarshal(data, &digests); err != nil {
		t.Fatal(err)
	}
	for _, s := range experiments.All() {
		_, golden := os.Stat(filepath.Join("..", goldenDir, s.ID+".txt"))
		_, digested := digests[s.ID]
		if (golden == nil) == digested {
			t.Errorf("%s: golden %v, digest %v; want exactly one", s.ID, golden == nil, digested)
		}
	}
	if len(digests) != len(simArtifacts) {
		t.Errorf("%d digests for %d simulation-backed artifacts", len(digests), len(simArtifacts))
	}
	for _, id := range simArtifacts {
		if _, ok := digests[id]; !ok {
			t.Errorf("simulation-backed %s has no digest", id)
		}
	}
}
