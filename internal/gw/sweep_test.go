package gw

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"swcc/internal/serve"
)

// FuzzSweepSubBatch: for any body serve.DecodeSweep accepts with spans
// and any partition of its points drawn from the fuzz bytes, each part
// rebuilt by subBatch decodes to the same points in the same order, and
// remapPointErr maps every in-range part-local points[k] back to the
// caller's index while leaving out-of-range ones alone.
func FuzzSweepSubBatch(f *testing.F) {
	f.Add([]byte(`{"points": [{"scheme": "base", "procs": 8}, {"scheme": "dragon", "params": {"shd": 0.3}, "procs": 4, "point": true}, {"scheme": "nosuch"}]}`), []byte{0, 1, 1})
	f.Add([]byte(`{"points":[{"scheme":"hybrid","lockfrac":0.4},{"scheme":"swflush","level":"high","procs":3},{"scheme":"winv"},{"scheme":"base","params":{"apl":-1}}]}`), []byte{3, 2, 0, 1, 2})
	f.Add([]byte(` { "points" : [ { "scheme" : "nocache" } ] } `), []byte{})
	f.Fuzz(func(t *testing.T, body, split []byte) {
		points, spans, err := serve.DecodeSweep(body)
		if err != nil || !spans || len(points) == 0 {
			return
		}
		parts := make([][]int, 4)
		for i := range points {
			p := 0
			if len(split) > 0 {
				p = int(split[i%len(split)]) % len(parts)
			}
			parts[p] = append(parts[p], i)
		}
		for _, idx := range parts {
			if len(idx) == 0 {
				continue
			}
			sub := subBatch(body, points, idx)
			got, gotSpans, err := serve.DecodeSweep(sub)
			if err != nil || !gotSpans || len(got) != len(idx) {
				t.Fatalf("sub-batch %s of %s: %d points, spans %v, err %v", sub, body, len(got), gotSpans, err)
			}
			for k, i := range idx {
				want := points[i]
				if !reflect.DeepEqual(got[k].Query, want.Query) || fmt.Sprint(got[k].Err) != fmt.Sprint(want.Err) {
					t.Fatalf("point %d decodes as %+v (%v) in sub-batch %s, %+v (%v) in %s",
						i, got[k].Query, got[k].Err, sub, want.Query, want.Err, body)
				}
			}

			var msg, want []byte
			for k, i := range idx {
				msg = fmt.Appendf(msg, "points[%d]: bad; ", k)
				want = fmt.Appendf(want, "points[%d]: bad; ", i)
			}
			msg = fmt.Appendf(msg, "points[%d]", len(idx))
			want = fmt.Appendf(want, "points[%d]", len(idx))
			if got := remapPointErr(msg, idx); !bytes.Equal(got, want) {
				t.Fatalf("remapPointErr(%q, %v) = %q, want %q", msg, idx, got, want)
			}
		}
	})
}
