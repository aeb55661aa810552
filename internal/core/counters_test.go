package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestCounterSchemaFold checks every schema row: well-formed names, and
// a Fold of two Counters holding distinct nonzero values that obeys the
// row's rule in both fold orders. It reads the rows from CounterSchema,
// so a new counter is covered without editing the test.
func TestCounterSchemaFold(t *testing.T) {
	schema := CounterSchema()
	if len(schema) != reflect.TypeOf(Counters{}).NumField() {
		t.Fatalf("schema has %d rows for %d fields", len(schema), reflect.TypeOf(Counters{}).NumField())
	}
	keys, metrics := map[string]bool{}, map[string]bool{}
	for _, f := range schema {
		if keys[f.Key] || strings.ToLower(f.Key[:1]) != f.Key[:1] {
			t.Errorf("%s: JSON key %q is duplicated or not lowerCamel", f.Name, f.Key)
		}
		keys[f.Key] = true
		if f.Rule == Sum && (metrics[f.Metric] || !strings.HasPrefix(f.Metric, "tinge_") || !strings.HasSuffix(f.Metric, "_total")) {
			t.Errorf("%s: metric %q is duplicated or not a tinge_..._total counter", f.Name, f.Metric)
		}
		metrics[f.Metric] = true
		switch f.Unit {
		case "count", "bytes", "seconds", "ratio":
		default:
			t.Errorf("%s: unknown unit %q", f.Name, f.Unit)
		}
	}

	set := func(c *Counters, f CounterField, v float64) {
		fv := reflect.ValueOf(c).Elem().FieldByName(f.Name)
		if fv.CanInt() {
			fv.SetInt(int64(v))
		} else {
			fv.SetFloat(v)
		}
	}
	var lo, hi Counters
	for i, f := range schema {
		set(&lo, f, float64(i+1))
		set(&hi, f, float64(100+i))
	}
	for _, pair := range [][2]*Counters{{&lo, &hi}, {&hi, &lo}} {
		dst, src := *pair[0], pair[1]
		dst.Fold(src)
		for _, f := range schema {
			a, b := f.Value(pair[0]), f.Value(src)
			want := map[FoldRule]float64{Sum: a + b, Max: max(a, b), Last: b}[f.Rule]
			if got := f.Value(&dst); got != want {
				t.Errorf("%s (rule %d): fold of %v and %v = %v, want %v", f.Name, f.Rule, a, b, got, want)
			}
		}
	}
}
