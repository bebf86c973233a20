package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"swcc/internal/core"
	"swcc/internal/obs"
)

// recordingObserver counts stages and events and remembers the trace IDs
// it saw, mutex-guarded so instrumented paths can run concurrently.
type recordingObserver struct {
	mu     sync.Mutex
	stages map[string]int     // stage -> observations
	events map[string]int     // cache+"/"+event -> count
	traces map[string]bool    // trace IDs seen on any callback
	timing map[string]float64 // stage -> accumulated seconds
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		stages: map[string]int{}, events: map[string]int{},
		traces: map[string]bool{}, timing: map[string]float64{},
	}
}

func (o *recordingObserver) StageObserved(ctx context.Context, stage string, seconds float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stages[stage]++
	o.timing[stage] += seconds
	o.traces[obs.TraceID(ctx)] = true
}

func (o *recordingObserver) CacheEvent(ctx context.Context, cache, event string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events[cache+"/"+event]++
	o.traces[obs.TraceID(ctx)] = true
}

// TestObserverSeesStagesAndEvents drives one cold query then one warm
// repeat through an observed evaluator and checks the stage/event stream
// matches the cache behavior Stats reports — and that the trace ID rides
// the context into every callback.
func TestObserverSeesStagesAndEvents(t *testing.T) {
	ev := NewEvaluator()
	rec := newRecordingObserver()
	ev.SetObserver(rec)
	ctx := obs.WithTraceID(context.Background(), "trace-observer-test")

	if _, err := ev.BusPointCtx(ctx, core.Dragon{}, core.MiddleParams(), core.BusCosts(), 8); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	if rec.events["demand/miss"] != 1 || rec.events["mva/miss"] != 1 {
		t.Errorf("cold query events = %v, want one demand/miss and one mva/miss", rec.events)
	}
	if rec.stages[StageSolve] != 2 {
		t.Errorf("cold query solve stages = %d, want 2 (demand + MVA)", rec.stages[StageSolve])
	}
	rec.mu.Unlock()

	if _, err := ev.BusPointCtx(ctx, core.Dragon{}, core.MiddleParams(), core.BusCosts(), 8); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.events["demand/hit"] != 1 || rec.events["mva/hit"] != 1 {
		t.Errorf("warm query events = %v, want one demand/hit and one mva/hit", rec.events)
	}
	if rec.stages[StageCacheLookup] < 2 {
		t.Errorf("cache_lookup stages = %d, want >= 2", rec.stages[StageCacheLookup])
	}
	if !rec.traces["trace-observer-test"] {
		t.Errorf("trace ID never reached the observer; saw %v", rec.traces)
	}
	for stage, sec := range rec.timing {
		if sec < 0 {
			t.Errorf("stage %s accumulated negative time %v", stage, sec)
		}
	}
	// The observer is telemetry only: Stats must agree with the events.
	st := ev.Stats()
	if st.DemandHits != 1 || st.MVAHits != 1 || st.DemandSolves != 1 || st.MVASolves != 1 {
		t.Errorf("stats diverge from observed events: %+v", st)
	}
}

// TestObserverSeesEvictions caps the evaluator tightly and checks CLOCK
// evictions surface as evict events.
func TestObserverSeesEvictions(t *testing.T) {
	ev := NewEvaluatorCap(numShards) // one entry per shard
	rec := newRecordingObserver()
	ev.SetObserver(rec)
	ctx := context.Background()
	for i := 0; i < 4*numShards; i++ {
		p, err := core.MiddleParams().With("shd", 0.01+0.9*float64(i)/float64(4*numShards))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.BusPointCtx(ctx, core.SoftwareFlush{}, p, core.BusCosts(), 4); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	evicts := rec.events["demand/evict"]
	rec.mu.Unlock()
	st := ev.Stats()
	if st.DemandEvictions == 0 {
		t.Fatalf("cap produced no evictions: %+v", st)
	}
	if uint64(evicts) != st.DemandEvictions {
		t.Errorf("observer saw %d demand evictions, Stats says %d", evicts, st.DemandEvictions)
	}
}

// TestUnobservedEvaluatorUnchanged pins that a nil observer keeps the
// computation identical (the instrumentation must be telemetry-only).
func TestUnobservedEvaluatorUnchanged(t *testing.T) {
	plain := NewEvaluator()
	rec := newRecordingObserver()
	observed := NewEvaluator()
	observed.SetObserver(rec)
	for _, procs := range []int{1, 8, 32} {
		a, err := plain.EvaluateBusCtx(context.Background(), core.Dragon{}, core.MiddleParams(), core.BusCosts(), procs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := observed.EvaluateBusCtx(context.Background(), core.Dragon{}, core.MiddleParams(), core.BusCosts(), procs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("procs=%d: observed evaluator diverged from plain", procs)
		}
	}
}
