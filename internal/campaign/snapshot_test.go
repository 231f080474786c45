package campaign

import (
	"reflect"
	"testing"

	"repro/internal/gsb"
	"repro/internal/sched"
)

// setNonZero sets v to a non-zero value of its kind; it reports false for
// a kind it has no rule for.
func setNonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return false
	}
	return true
}

// TestOptionsHashCoversEveryOption checks campaign option identity on the
// real types: every sched.ExploreOptions field either reaches the
// OptionsHeader, changes the options hash and survives
// Header.ExploreOptions, or is listed in optionsHashExcluded and leaves
// the hash alone; every exclusion names a field and gives a reason; and
// every OptionsHeader field reaches optionsHash. An option that
// escapes the hash would let a resume or merge verify something other
// than what the snapshot started.
func TestOptionsHashCoversEveryOption(t *testing.T) {
	base := Config{Protocol: "renaming", Spec: gsb.Renaming(3, 5), IDs: sched.DefaultIDs(3), Of: 1}
	baseHeader := base.header()

	opts := reflect.TypeOf(sched.ExploreOptions{})
	for i := 0; i < opts.NumField(); i++ {
		name := opts.Field(i).Name
		cfg := base
		if !setNonZero(reflect.ValueOf(&cfg.Opts).Elem().Field(i)) {
			t.Errorf("ExploreOptions.%s: no rule for kind %s", name, opts.Field(i).Type.Kind())
			continue
		}
		h := cfg.header()
		changed := h.OptionsHash != baseHeader.OptionsHash
		_, excluded := optionsHashExcluded[name]
		switch {
		case excluded && changed:
			t.Errorf("ExploreOptions.%s changes the options hash but is listed in optionsHashExcluded", name)
		case excluded:
		case !changed:
			t.Errorf("ExploreOptions.%s leaves the options hash unchanged and is not excluded: hash it, or exclude it with a reason", name)
		case reflect.DeepEqual(h.Options, baseHeader.Options):
			t.Errorf("ExploreOptions.%s is not captured by optionsHeader: only the mode it implies reaches the hash", name)
		case !reflect.DeepEqual(optionsHeader(h.ExploreOptions()), h.Options):
			t.Errorf("ExploreOptions.%s does not survive Header.ExploreOptions: got %+v, header %+v", name, optionsHeader(h.ExploreOptions()), h.Options)
		}
	}
	for name, reason := range optionsHashExcluded {
		if _, ok := opts.FieldByName(name); !ok {
			t.Errorf("optionsHashExcluded lists %q, which is not an ExploreOptions field", name)
		}
		if reason == "" {
			t.Errorf("optionsHashExcluded lists %q without a reason", name)
		}
	}

	fields := reflect.TypeOf(OptionsHeader{})
	for i := 0; i < fields.NumField(); i++ {
		h := baseHeader
		if !setNonZero(reflect.ValueOf(&h.Options).Elem().Field(i)) {
			t.Errorf("OptionsHeader.%s: no rule for kind %s", fields.Field(i).Name, fields.Field(i).Type.Kind())
			continue
		}
		if optionsHash(h) == baseHeader.OptionsHash {
			t.Errorf("OptionsHeader.%s never reaches optionsHash: two campaigns differing only in it would collide", fields.Field(i).Name)
		}
	}
}
