package lint

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// RoundTripJSON checks the checkpoint wire format of v's type. First, the
// struct and every struct type reachable from it must name each exported
// field explicitly and uniquely in a json tag, and embed none
// (checkJSONNames). Second, every exported field must survive an
// encode/decode cycle: it fills every exported field of a fresh value of
// v's type with a distinguishable non-zero value, marshals, unmarshals
// into a second fresh value, and returns an error naming the first field
// that did not round-trip. Packages that own snapshot state call it from
// a table-driven test (TestCheckpointStateRoundTrips) so that a field
// dropped from the wire format — a "-" tag, an omitempty-swallowed zero,
// a custom MarshalJSON that forgets a field — fails the suite with the
// field's name rather than a downstream campaign-corruption symptom.
//
// v must be a non-nil pointer to a struct.
func RoundTripJSON(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("RoundTripJSON: need non-nil pointer to struct, got %T", v)
	}
	t := rv.Elem().Type()
	if err := checkJSONNames(t, map[reflect.Type]bool{}); err != nil {
		return fmt.Errorf("RoundTripJSON: %w", err)
	}

	in := reflect.New(t)
	if err := populate(in.Elem(), 1); err != nil {
		return fmt.Errorf("RoundTripJSON: populating %s: %w", t, err)
	}
	data, err := json.Marshal(in.Interface())
	if err != nil {
		return fmt.Errorf("RoundTripJSON: marshal %s: %w", t, err)
	}
	out := reflect.New(t)
	if err := json.Unmarshal(data, out.Interface()); err != nil {
		return fmt.Errorf("RoundTripJSON: unmarshal %s: %w", t, err)
	}
	if bad := firstMismatch(t.Name(), in.Elem(), out.Elem()); bad != "" {
		return fmt.Errorf("RoundTripJSON: field %s did not survive the wire format (wire: %s)", bad, data)
	}
	return nil
}

// checkJSONNames checks the json names of t, when t is a struct, and of
// every struct type reachable from it through fields, pointers, slices
// and maps. An embedded field flattens into the wire format implicitly; a
// field without an explicit json name serializes under its Go name,
// which changes on a rename; a field tagged "-" vanishes from the wire;
// and of two fields sharing a name, encoding/json silently drops both.
// Unexported fields are skipped: encoding/json cannot see them.
func checkJSONNames(t reflect.Type, seen map[reflect.Type]bool) error {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		return checkJSONNames(t.Elem(), seen)
	case reflect.Struct:
	default:
		return nil
	}
	if seen[t] {
		return nil
	}
	seen[t] = true
	names := map[string]string{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return fmt.Errorf("%s embeds %s: name the field and give it a json name", t, f.Type)
		}
		if !f.IsExported() {
			continue
		}
		tag, _ := f.Tag.Lookup("json")
		name, _, _ := strings.Cut(tag, ",")
		switch {
		case name == "":
			return fmt.Errorf("%s.%s has no explicit json name", t, f.Name)
		case name == "-":
			return fmt.Errorf("%s.%s is tagged json:\"-\": it vanishes from the wire", t, f.Name)
		case names[name] != "":
			return fmt.Errorf("%s.%s reuses json name %q of %s.%s", t, f.Name, name, t, names[name])
		}
		names[name] = f.Name
		if err := checkJSONNames(f.Type, seen); err != nil {
			return err
		}
	}
	return nil
}

// populate fills every exported, settable field of v with a value derived
// from seed, recursing into structs, slices, maps and pointers so nested
// state (FrontierState inside ExploreState) is exercised too.
func populate(v reflect.Value, seed int) error {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := populate(v.Field(i), seed+i+1); err != nil {
				return fmt.Errorf("%s: %w", t.Field(i).Name, err)
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		if err := populate(elem, seed+1); err != nil {
			return err
		}
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Map:
		// encoding/json carries string and integer keys faithfully
		// (integers render as decimal object keys); anything else would
		// need a TextMarshaler and is rejected as un-serializable state.
		key := reflect.New(v.Type().Key()).Elem()
		switch key.Kind() {
		case reflect.String:
			key.SetString(fmt.Sprintf("k%d", seed))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			key.SetInt(int64(seed))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			key.SetUint(uint64(seed))
		default:
			return fmt.Errorf("map key %s is neither string nor integer: JSON objects cannot carry it faithfully", v.Type().Key())
		}
		m := reflect.MakeMap(v.Type())
		elem := reflect.New(v.Type().Elem()).Elem()
		if err := populate(elem, seed+1); err != nil {
			return err
		}
		m.SetMapIndex(key, elem)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if err := populate(p.Elem(), seed+1); err != nil {
			return err
		}
		v.Set(p)
	default:
		return fmt.Errorf("unsupported kind %s in serialized state", v.Kind())
	}
	return nil
}

// firstMismatch compares exported fields of a and b and returns the
// dotted path of the first that differs, or "".
func firstMismatch(path string, a, b reflect.Value) string {
	if a.Kind() != reflect.Struct {
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return path
		}
		return ""
	}
	t := a.Type()
	for i := 0; i < a.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Pointer && !fa.IsNil() && !fb.IsNil() {
			fa, fb = fa.Elem(), fb.Elem()
		}
		if bad := firstMismatch(path+"."+t.Field(i).Name, fa, fb); bad != "" {
			return bad
		}
	}
	return ""
}
