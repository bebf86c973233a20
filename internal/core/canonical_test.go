package core

import (
	"reflect"
	"testing"
)

// TestFieldMaskMatchesFieldOrder pins the hand-unrolled field copies in
// Params.canonical to fieldSpecs order: for every parameter index i,
// canonicalizing under the single-bit mask 1<<i must copy exactly that
// parameter through and reset everything else to the baseline. If a
// field is ever added or the table reordered without updating canonical,
// this fails before the cache can key on the wrong equivalence class.
func TestFieldMaskMatchesFieldOrder(t *testing.T) {
	fields := Fields()
	// Distinctive source values: field i carries 10+i, never a baseline
	// value (baseline is zero everywhere, apl 1).
	var src Params
	for i := range fields {
		fields[i].Set(&src, float64(10+i))
	}
	for i, f := range fields {
		got := src.canonical(1 << i)
		for j, g := range fields {
			want := 0.0
			if g.Name == "apl" {
				want = 1 // baseline apl
			}
			if j == i {
				want = float64(10 + i)
			}
			if v := g.Get(&got); v != want {
				t.Errorf("mask 1<<%d (%s): field %s = %g, want %g", i, f.Name, g.Name, v, want)
			}
		}
	}
}

// maskedSchemes lists every registered scheme (so a new registration is
// covered automatically) plus non-default knob settings.
func maskedSchemes() []Scheme {
	schemes := []Scheme{Hybrid{LockFrac: 0.5}, HybridUpdate{UpdateFrac: 0.25}}
	for _, info := range RegisteredSchemes() {
		schemes = append(schemes, info.Scheme)
	}
	return schemes
}

// TestCanonicalParamsAllocationFree pins the zero-allocation contract of
// the cache-key canonicalization path for every built-in scheme: the
// memoizing evaluator calls CanonicalParams on every lookup, so a single
// allocation here multiplies across all cached traffic.
func TestCanonicalParamsAllocationFree(t *testing.T) {
	p := MiddleParams()
	for _, s := range maskedSchemes() {
		s := s
		if avg := testing.AllocsPerRun(100, func() {
			CanonicalParams(s, p)
		}); avg != 0 {
			t.Errorf("%s: CanonicalParams allocates %.1f times per call, want 0", s.Name(), avg)
		}
	}
}

// TestParamsDecoderFieldOrder pins the params decoder's tables to
// fieldSpecs order: paramNames[i] is field i's name, setField(i) writes
// exactly field i, and the names are paramsJSON's, so decoding and
// WriteParams agree.
func TestParamsDecoderFieldOrder(t *testing.T) {
	fields := Fields()
	if len(paramNames) != len(fields) {
		t.Fatalf("%d param names for %d fields", len(paramNames), len(fields))
	}
	tags := map[string]bool{}
	rt := reflect.TypeOf(paramsJSON{})
	for i := 0; i < rt.NumField(); i++ {
		tags[rt.Field(i).Tag.Get("json")] = true
	}
	for i, f := range fields {
		if paramNames[i] != f.Name || !tags[f.Name] {
			t.Errorf("field %d: name %q, spec %q, in paramsJSON %v", i, paramNames[i], f.Name, tags[f.Name])
		}
		var p Params
		p.setField(i, 42)
		for j, g := range fields {
			want := 0.0
			if j == i {
				want = 42
			}
			if v := g.Get(&p); v != want {
				t.Errorf("setField(%d) (%s): field %s = %g, want %g", i, f.Name, g.Name, v, want)
			}
		}
	}
}
