package sample

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// encode returns the whole encoding AppendJSONParts writes for st,
// appended after prefix: head, class object and closing '}'.
func encode(t testing.TB, st *BatchState, prefix []byte) []byte {
	t.Helper()
	head, classes, err := st.AppendJSONParts(prefix)
	if err != nil {
		t.Fatalf("AppendJSONParts: %v", err)
	}
	return append(append(head, classes...), '}')
}

// reference is the encoding st must have: json.Marshal's bytes for st
// without its classes, with classObject in place of the null.
func reference(t testing.TB, st *BatchState) []byte {
	t.Helper()
	bare := *st
	bare.Classes = nil
	b, err := json.Marshal(&bare)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if st.Classes == nil {
		return b
	}
	b = bytes.TrimSuffix(b, []byte("null}"))
	return append(append(b, classObject(st.Classes.first)...), '}')
}

// classObject renders classes as a JSON object in first-run order: by
// value, ties by key.
func classObject(classes map[uint64]int) []byte {
	keys := slices.Collect(maps.Keys(classes))
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(classes[a], classes[b]), cmp.Compare(a, b))
	})
	obj := []byte{'{'}
	for i, h := range keys {
		if i > 0 {
			obj = append(obj, ',')
		}
		obj = fmt.Appendf(obj, `"%d":%d`, h, classes[h])
	}
	return append(obj, '}')
}

// checkEncoding fails unless the encoder writes exactly reference's bytes
// for st, appended after an existing prefix, json.Marshal writes the same
// bytes for st and for *st, and they decode to st.
func checkEncoding(t *testing.T, label string, st *BatchState) {
	t.Helper()
	want := reference(t, st)
	got := encode(t, st, []byte("prefix"))
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("%s: encoder wrote\n%s\nthe reference is\n%s", label, got, want)
	}
	for _, v := range []any{st, *st} {
		if b, err := json.Marshal(v); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("%s: json.Marshal(%T) wrote\n%s (error %v)\nthe reference is\n%s", label, v, b, err, want)
		}
	}
	var decoded BatchState
	if err := json.Unmarshal(got[len("prefix"):], &decoded); err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	if want := roundTrip(t, st); !sameState(&decoded, want) {
		t.Fatalf("%s: the encoding decodes to %+v, json.Marshal's to %+v", label, decoded, *want)
	}
}

// sameState reports whether a and b hold the same state: equal fields and
// equal class maps, whatever their encoders have written so far.
func sameState(a, b *BatchState) bool {
	if (a.Classes == nil) != (b.Classes == nil) ||
		a.Classes != nil && !maps.Equal(a.Classes.first, b.Classes.first) {
		return false
	}
	x, y := *a, *b
	x.Classes, y.Classes = nil, nil
	return reflect.DeepEqual(x, y)
}

// decodedSet returns classes as the JSON decoder builds a class set.
func decodedSet(t testing.TB, classes map[uint64]int) *ClassSet {
	t.Helper()
	b, err := json.Marshal(classes)
	if err != nil {
		t.Fatal(err)
	}
	c := new(ClassSet)
	if err := json.Unmarshal(b, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// edgeKeys are class keys whose decimal renderings are prefixes of each
// other or sit at a digit-count boundary.
var edgeKeys = []uint64{
	0, 1, 9, 10, 11, 12, 120, 1200, 1201, 119, 121,
	1e18, 1e18 - 1, 1e19 - 1, 1e19, 1e19 + 1, math.MaxUint64, math.MaxUint64 - 1,
	18446744073709551, 1844674407370955161,
}

// pow10 holds 10^0 .. 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// randomKey draws a key whose decimal rendering has exactly digits
// digits (1 to 20).
func randomKey(rng *rand.Rand, digits int) uint64 {
	if digits == 20 {
		return pow10[19] + rng.Uint64()%(math.MaxUint64-pow10[19]+1)
	}
	lo := uint64(0)
	if digits > 1 {
		lo = pow10[digits-1]
	}
	return lo + rng.Uint64()%(pow10[digits]-lo)
}

// TestAppendJSONMatchesMarshal is the encoder's differential: on random
// and edge-case states, decoded, grown slice by slice as Slice grows them
// and decoded again, its bytes equal the reference's.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	checkEncoding(t, "nil classes", &BatchState{})
	checkEncoding(t, "empty classes", &BatchState{Classes: new(ClassSet)})
	checkEncoding(t, "empty decoded classes", &BatchState{Classes: decodedSet(t, map[uint64]int{})})
	checkEncoding(t, "edge keys and escaping", &BatchState{
		Depth: 3, Horizon: 41,
		Pool: sched.SeededState{Shard: 1, Of: 3, Next: 9, Completed: 8,
			Failure: &sched.SeededFailure{Run: 25, Message: "processes <0> & \"1\" both decided 2 — naïve ✓ \u2028\u2029 \xff\x01"}},
		Classes: decodedSet(t, map[uint64]int{12: 4, 120: 1, 1200: 7, 1e19 - 1: 2, 1e19: 3, math.MaxUint64: 0}),
	})

	rng := rand.New(rand.NewSource(7))
	for trial := range 40 {
		st := &BatchState{Classes: new(ClassSet)}
		if trial%2 == 1 {
			st.Depth, st.Horizon = 1+rng.Intn(5), rng.Intn(1000)
		}
		if trial%3 == 0 {
			run := rng.Intn(1000)
			st.Pool.Failure = &sched.SeededFailure{Run: run, Message: "run <" + strconv.Itoa(run) + "> & \"ß\""}
		}
		// Several slices' worth of classes, checkpointed after each, with
		// keys of every decimal length and edge keys mixed in. A slice
		// records runs above every earlier slice's, in any order, and a
		// class seen again at a smaller run of the slice keeps that run.
		base := 0
		grow := func(label string, runs int) {
			for range rng.Intn(runs) {
				st.Classes.record(randomKey(rng, 1+rng.Intn(20)), base+rng.Intn(runs))
			}
			st.Classes.record(edgeKeys[rng.Intn(len(edgeKeys))], base+rng.Intn(runs))
			base += runs
			checkEncoding(t, label, st)
		}
		for slice := range 5 {
			grow("trial "+strconv.Itoa(trial)+" slice "+strconv.Itoa(slice), 200)
		}
		// A decoded state encodes its classes whole, then continues
		// appending.
		st = roundTrip(t, st)
		checkEncoding(t, "decoded trial "+strconv.Itoa(trial), st)
		grow("decoded and grown trial "+strconv.Itoa(trial), 50)
	}
}

// TestAppendJSONRejectsOutOfOrderRecord: a class first recorded at a run
// that does not sort after the last class written is an error, never an
// object out of first-run order. No slice of a state that passed
// CheckClasses records one.
func TestAppendJSONRejectsOutOfOrderRecord(t *testing.T) {
	st := &BatchState{Classes: new(ClassSet)}
	st.Classes.record(5, 10)
	checkEncoding(t, "one class", st)
	st.Classes.record(6, 9)
	if _, _, err := st.AppendJSONParts(nil); err == nil || !strings.Contains(err.Error(), "class 6 first seen at run 9") {
		t.Fatalf("encode after a record below the last written run: error %v", err)
	}
}

// TestAppendJSONAcrossSlices encodes real batch states after every slice,
// walk and PCT, before and after a decode: a passing batch whose class set
// grows, and a failing one. A slice records only classes at runs after the
// kept ones, so each encode appends to the previous class object: that
// object without its '}' is a prefix of the next.
func TestAppendJSONAcrossSlices(t *testing.T) {
	for _, mode := range []sched.SampleMode{sched.SampleWalk, sched.SamplePCT} {
		for _, check := range []func(*sched.Result) error{nil, distinctOutputs} {
			r := &ResumableBatch{N: 3, IDs: []int{1, 2, 3}, Build: racyBuild, Check: check,
				Opts: sched.ExploreOptions{Workers: 2, Seed: 5, SampleRuns: 400, SampleMode: mode, Depth: 2}}
			label := "mode " + strconv.Itoa(int(mode)) + " check " + strconv.FormatBool(check != nil)
			st, err := r.Init(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			var prev []byte
			appended := func(label string) {
				t.Helper()
				checkEncoding(t, label, st)
				_, obj, err := st.AppendJSONParts(nil)
				if err != nil {
					t.Fatal(err)
				}
				if prev != nil && !bytes.HasPrefix(obj, prev[:len(prev)-1]) {
					t.Fatalf("%s: class object\n%s\ndoes not extend the previous one\n%s", label, obj, prev)
				}
				prev = bytes.Clone(obj)
			}
			for slice := 0; ; slice++ {
				appended(label + " slice " + strconv.Itoa(slice))
				if slice == 3 {
					st = roundTrip(t, st)
					appended(label + " decoded")
				}
				var done bool
				st, done, err = r.Slice(context.Background(), st, 37)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			appended(label + " done")
			if check == nil && st.Classes.Len() < 4 || check != nil && st.Pool.Failure == nil {
				t.Fatalf("%s: %d classes, failure %+v: the batch does not exercise the encoder", label, st.Classes.Len(), st.Pool.Failure)
			}
		}
	}
}

// BenchmarkClassCheckpoints encodes one state 60 times into one buffer,
// recording 1,000 random 64-bit keys at increasing runs before each
// encode: the shape of a 60,000-run walk campaign checkpointed every
// 1,000 runs. Only the encodes are timed.
func BenchmarkClassCheckpoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 60*1000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var buf []byte
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		st := &BatchState{Classes: new(ClassSet)}
		b.StartTimer()
		for c := range 60 {
			b.StopTimer()
			for i := c * 1000; i < (c+1)*1000; i++ {
				st.Classes.record(keys[i], i)
			}
			b.StartTimer()
			buf = encode(b, st, buf[:0])
		}
	}
}
