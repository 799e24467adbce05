// Package obstest checks that a component's Stats and its obs.Registry
// are one store of counts.
package obstest

import (
	"reflect"
	"testing"

	"tss/internal/obs"
)

// SameStore fails t unless every field of stats — a struct of
// *obs.Counter handles or of int64 snapshots — equals the registry
// counter that series names for it, that counter is served in the
// registry's snapshot, and series names no field stats lacks.
func SameStore(t testing.TB, reg *obs.Registry, stats any, series map[string]string) {
	t.Helper()
	snap := reg.Snapshot()
	v := reflect.Indirect(reflect.ValueOf(stats))
	if v.NumField() != len(series) {
		t.Errorf("%s has %d fields; the table names %d series", v.Type(), v.NumField(), len(series))
	}
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := series[field]
		if !ok {
			t.Errorf("%s.%s: no series in the table", v.Type(), field)
			continue
		}
		var got int64
		switch f := v.Field(i).Interface().(type) {
		case *obs.Counter:
			got = f.Load()
		case int64:
			got = f
		default:
			t.Fatalf("%s.%s is a %T", v.Type(), field, f)
		}
		if served, ok := snap.Counters[name]; !ok || served != got {
			t.Errorf("%s.%s = %d, but %s = %d (served %v)", v.Type(), field, got, name, served, ok)
		}
	}
}
