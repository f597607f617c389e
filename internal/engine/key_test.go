package engine

import (
	"reflect"
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// keyLeafPaths walks a struct type and returns the field-index chain
// of every leaf (non-struct) field.
func keyLeafPaths(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		if f := t.Field(i); f.Type.Kind() == reflect.Struct {
			out = append(out, keyLeafPaths(f.Type, path)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// perturb changes a leaf field to a different value.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
	case reflect.String:
		v.SetString(v.String() + "\x01")
	default:
		panic("unhandled key field kind " + v.Kind().String())
	}
}

// TestJobKeyCoversEveryField pins the memo key to the full Job
// identity: perturbing ANY leaf field of the job (or of any nested
// struct) must change the encoded key. The key is both the in-memory
// memo's identity and the persistent memo's content key, so the walk
// is reflective: adding a field to Job, cost.Options, hw.Wafer, etc.
// without extending appendJobKey fails this test instead of silently
// serving one job's result for another, in memory or on disk.
func TestJobKeyCoversEveryField(t *testing.T) {
	base := Job{
		Model: model.GPT3_6_7B(),
		Wafer: hw.EvaluationWafer(),
		Config: parallel.Config{
			DP: 2, TP: 2, SP: 2, CP: 1, TATP: 4, PP: 1,
		},
		Opts:    cost.TEMPOptions(),
		Backend: "replay",
	}
	baseKey := string(appendJobKey(nil, base))
	if len(baseKey) == 0 {
		t.Fatal("empty job key")
	}

	paths := keyLeafPaths(reflect.TypeOf(base), nil)
	if len(paths) < 40 {
		t.Fatalf("leaf walk found only %d fields — walker broken?", len(paths))
	}
	for _, path := range paths {
		cp := base
		v := reflect.ValueOf(&cp).Elem()
		name := ""
		tt := reflect.TypeOf(base)
		for _, i := range path {
			name += "." + tt.Field(i).Name
			tt = tt.Field(i).Type
			v = v.Field(i)
		}
		perturb(v)
		if got := string(appendJobKey(nil, cp)); got == baseKey {
			t.Errorf("perturbing Job%s does not change the memo key", name)
		}
	}
}

// TestJobKeyDeterministic: the key is a pure function of the job, and
// string fields are length-prefixed so adjacent fields cannot alias.
func TestJobKeyDeterministic(t *testing.T) {
	j := Job{Model: model.GPT3_6_7B(), Wafer: hw.EvaluationWafer(), Opts: cost.TEMPOptions()}
	a := string(appendJobKey(nil, j))
	b := string(appendJobKey(nil, j))
	if a != b {
		t.Fatal("job key not deterministic")
	}
	// Shifting a suffix from one string field to the next must change
	// the key (length prefixes prevent concatenation aliasing).
	x, y := j, j
	x.Model.Name, x.Backend = "ab", "c"
	y.Model.Name, y.Backend = "a", "bc"
	if string(appendJobKey(nil, x)) == string(appendJobKey(nil, y)) {
		t.Fatal("string fields alias under concatenation")
	}
}
