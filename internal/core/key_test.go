package core

import (
	"reflect"
	"testing"
)

// TestKeyFieldsCoverParams: KeyFields lists every Params field exactly
// once, in declaration order, so a new workload parameter cannot be left
// out of the cache identity.
func TestKeyFieldsCoverParams(t *testing.T) {
	var p Params
	v := reflect.ValueOf(&p).Elem()
	fields := p.KeyFields()
	if v.NumField() != len(fields) {
		t.Fatalf("Params has %d fields, KeyFields lists %d", v.NumField(), len(fields))
	}
	for i, f := range fields {
		if want := v.Field(i).Addr().Interface().(*float64); f != want {
			t.Errorf("KeyFields()[%d] is not Params.%s", i, v.Type().Field(i).Name)
		}
	}
}
