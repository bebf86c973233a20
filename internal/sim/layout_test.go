package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"swcc/internal/trace"
)

// TestRunDependsOnlyOnPerProcessorOrder checks that a run reads each
// processor's record sequence and nothing else of the trace's layout:
// re-laying a generated trace out, each processor's records kept in
// their order, gives the round-robin original's Result on every
// protocol, medium, machine size and warmup. A generated trace puts
// every record within a skip byte of its processor's next one; these
// layouts put records 255, 256 and many more records apart, and leave
// a processor with none, so they drive the forward scan past the skip
// bytes' reach. The configurations run as parallel subtests that share
// one Prepared per layout.
func TestRunDependsOnlyOnPerProcessorOrder(t *testing.T) {
	tr := genTrace(t, "pero8", 1000)
	// noRecords is the generated trace without processor 1's records,
	// in the same order: processor 1 then has none.
	noRecords := &trace.Trace{NCPU: tr.NCPU}
	for _, r := range tr.Refs {
		if r.CPU() != 1 {
			noRecords.Refs = append(noRecords.Refs, r)
		}
	}
	originals := []*trace.Trace{tr, noRecords}
	type layout struct {
		name     string
		original int // index into originals
		p        *Prepared
	}
	var layouts []layout
	add := func(name string, original int, order func(lens []int) []int) {
		t.Helper()
		laid := relay(originals[original], order)
		p, err := Prepare(laid)
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, layout{name, original, p})
	}
	add("blocks-reversed", 0, blocksReversed)
	add("no-records-blocks-reversed", 1, blocksReversed)
	for _, gap := range []int{254, 255, 256, 5000} {
		add(fmt.Sprintf("cpu0-silent-%d", gap), 0, func(lens []int) []int { return silent(lens, gap) })
		add(fmt.Sprintf("no-records-cpu0-silent-%d", gap), 1, func(lens []int) []int { return silent(lens, gap) })
	}
	var want []*Prepared
	for _, o := range originals {
		p, err := Prepare(o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}

	cache := CacheConfig{Size: 4 * 1024, BlockSize: 16, Assoc: 2}
	for proto := range protoSchemes {
		for _, medium := range []Medium{MediumBus, MediumNetwork} {
			if medium == MediumNetwork && (Protocol(proto) == ProtoDragon || Protocol(proto) == ProtoWriteInvalidate) {
				continue
			}
			for n := 1; n <= tr.NCPU; n++ {
				cfg := Config{NCPU: n, Cache: cache, Protocol: Protocol(proto), Medium: medium}
				t.Run(fmt.Sprintf("%v/%v/ncpu=%d", cfg.Protocol, medium, n), func(t *testing.T) {
					t.Parallel()
					for o, p := range want {
						cfg := cfg
						cfg.WarmupRefs = p.Records(n) / 3
						orig, err := p.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, l := range layouts {
							if l.original != o {
								continue
							}
							got, err := l.p.Run(cfg)
							if err != nil {
								t.Fatalf("%s: %v", l.name, err)
							}
							if !reflect.DeepEqual(got, orig) {
								t.Errorf("%s: %+v, want the original layout's %+v", l.name, got, orig)
							}
						}
					}
				})
			}
		}
	}
}

// relay lays t's records out anew: order gets each processor's record
// count and returns the processor of each slot, and slot i takes that
// processor's next record.
func relay(t *trace.Trace, order func(lens []int) []int) *trace.Trace {
	streams := make([][]trace.Ref, t.NCPU)
	for _, r := range t.Refs {
		streams[r.CPU()] = append(streams[r.CPU()], r)
	}
	lens := make([]int, t.NCPU)
	for c, s := range streams {
		lens[c] = len(s)
	}
	laid := &trace.Trace{NCPU: t.NCPU, Refs: make([]trace.Ref, 0, len(t.Refs))}
	for _, c := range order(lens) {
		laid.Refs = append(laid.Refs, streams[c][0])
		streams[c] = streams[c][1:]
	}
	if len(laid.Refs) != len(t.Refs) {
		panic(fmt.Sprintf("relay: order laid %d of %d records", len(laid.Refs), len(t.Refs)))
	}
	return laid
}

// blocksReversed lays each processor's records out as one block, the
// blocks in reverse processor order.
func blocksReversed(lens []int) []int {
	var order []int
	for c := len(lens) - 1; c >= 0; c-- {
		for range lens[c] {
			order = append(order, c)
		}
	}
	return order
}

// silent lays processor 0 silent for gap records after each of its
// records, filling the gaps with the other processors' records laid
// round-robin; once either side runs out, the other's rest follow.
func silent(lens []int, gap int) []int {
	left := slices.Clone(lens)
	var order []int
	at := 1
	// other lays the next of processors 1.. round-robin; it reports
	// false once none has records left.
	other := func() bool {
		for range len(left) {
			c := at
			at = at%(len(left)-1) + 1
			if left[c] > 0 {
				left[c]--
				order = append(order, c)
				return true
			}
		}
		return false
	}
	for ; left[0] > 0; left[0]-- {
		order = append(order, 0)
		for range gap {
			if !other() {
				break
			}
		}
	}
	for other() {
	}
	return order
}
