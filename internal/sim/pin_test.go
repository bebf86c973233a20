package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"swcc/internal/trace"
)

// TestResultPin pins whole Results across the simulator's configuration
// space, so an engine change that claims to be behavior-preserving must
// reproduce every counter of every run bit for bit. The matrix covers
// four presets, every protocol on both media, every replacement policy,
// three associativities of a 4 KB cache, four machine sizes (including
// processors with no records) and warmup on and off; failed runs are
// pinned by their error strings. One SHA-256 per protocol x medium over
// the JSON-encoded outcomes names the slice that moved.
func TestResultPin(t *testing.T) {
	want := map[string]string{
		"Base/bus":                 "056980cfb4d4d2f2b6f625b99ad53264e1f99b3d744867e64b91076896893ae4",
		"Base/network":             "0bfd88871a4296a59d4fd434d7905d21deea681fd3a7c1a16a5a1aae73f991e9",
		"Dragon/bus":               "9a5dbb0990e9a13e59f7f6a2101ec47a8c08e0a628fcc2e9951328be059e2e3d",
		"Dragon/network":           "a6a47e34b37f4eeeab78c7792f98aef46b5287d8806c3f96ca85c87277495bdb",
		"No-Cache/bus":             "29831e98f99750593a828450cf8f97bb11cd3bb1331e10e55d3a88917023db87",
		"No-Cache/network":         "a03ef889d4e0fb352c2dec784cdeeea0aaaba1931ca3a395ab8beb4811a70329",
		"Software-Flush/bus":       "00d46e26ab85aee94f8175d3c6d65c9ae3aaa957f2da10706ccd23df982ba02d",
		"Software-Flush/network":   "ab157d6442eeacf42beee21286dd5d075af97d87e8d01e33b83cf041e31d7125",
		"Write-Invalidate/bus":     "f7c862ba760ed55ffcad28b09b8e8a20aa521b9f539826a9a1c1d67480f82d29",
		"Write-Invalidate/network": "3b291316af43fde7f1ac9d9a2c176aad118667658b799312c8fdcb75f2a9664b",
	}
	// The traces are shared read-only by the slices, which run in
	// parallel; each slice hashes its outcomes in one fixed order.
	type machine struct {
		ncpu int
		tr   *trace.Trace
	}
	var machines []machine
	for _, preset := range []string{"pops", "thor", "pero", "pero8"} {
		full := genTrace(t, preset, 3000)
		for _, n := range []int{1, 2, full.NCPU, full.NCPU + 2} {
			machines = append(machines, machine{n, full.Restrict(n)})
		}
	}
	for p := range protoSchemes {
		for _, medium := range []Medium{MediumBus, MediumNetwork} {
			key := Protocol(p).String() + "/" + medium.String()
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				h := sha256.New()
				enc := json.NewEncoder(h)
				for _, m := range machines {
					for _, warm := range []float64{0, 0.5} {
						for _, policy := range []Policy{LRU, FIFO, Random} {
							for _, assoc := range []int{1, 2, 4} {
								cfg := Config{
									NCPU:       m.ncpu,
									Cache:      CacheConfig{Size: 4096, BlockSize: 16, Assoc: assoc, Replacement: policy},
									Protocol:   Protocol(p),
									Medium:     medium,
									WarmupRefs: int(warm * float64(len(m.tr.Refs))),
								}
								var o struct {
									Result *Result `json:",omitempty"`
									Err    string  `json:",omitempty"`
								}
								res, err := Run(cfg, m.tr)
								if err != nil {
									o.Err = err.Error()
								} else {
									o.Result = res
								}
								if err := enc.Encode(o); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("results digest %s, want %s", got, want[key])
				}
			})
		}
	}
}

// TestPreparedRunMatchesRun: every configuration of TestResultPin's
// matrix, run concurrently from one Prepared per preset, equals the
// one-shot Run of the copied restriction, Result for Result and error
// for error. A machine smaller than the trace simulates the trace's
// first NCPU processors in place, and since Run is Prepare followed by
// one Prepared.Run, this also pins Run of the full trace against Run of
// its restriction. The runs share the Prepared read-only, so
// `go test -race` checks that sharing.
func TestPreparedRunMatchesRun(t *testing.T) {
	for _, preset := range []string{"pops", "thor", "pero", "pero8"} {
		full := genTrace(t, preset, 3000)
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(full)
			if err != nil {
				t.Fatal(err)
			}
			type job struct {
				sub *trace.Trace
				cfg Config
			}
			work := make(chan job)
			var wg sync.WaitGroup
			for range max(4, runtime.GOMAXPROCS(0)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range work {
						got, gotErr := p.Run(j.cfg)
						want, wantErr := Run(j.cfg, j.sub)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
							t.Errorf("%+v: prepared run (%v) differs from Run of the restricted trace (%v)", j.cfg, gotErr, wantErr)
						}
					}
				}()
			}
			for _, n := range []int{1, 2, full.NCPU, full.NCPU + 2} {
				sub := full.Restrict(n)
				for proto := range protoSchemes {
					for _, medium := range []Medium{MediumBus, MediumNetwork} {
						for _, warm := range []float64{0, 0.5} {
							for _, policy := range []Policy{LRU, FIFO, Random} {
								for _, assoc := range []int{1, 2, 4} {
									work <- job{sub, Config{
										NCPU:       n,
										Cache:      CacheConfig{Size: 4096, BlockSize: 16, Assoc: assoc, Replacement: policy},
										Protocol:   Protocol(proto),
										Medium:     medium,
										WarmupRefs: int(warm * float64(p.Records(n))),
									}}
								}
							}
						}
					}
				}
			}
			close(work)
			wg.Wait()
		})
	}
}
