package sample

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
)

// This file is the sampling batch's checkpoint encoder. A campaign
// re-writes its whole coverage map at every checkpoint, and the map grows
// with the distinct-class count; encoding/json sorts every key of it by
// its decimal string on each write. AppendJSON writes the same bytes but
// keeps the class object it last wrote: a checkpoint checks the kept
// entries against the map, then sorts and formats only the keys first
// seen since the previous one and moves the kept bytes around them.
//
// BatchState deliberately has no MarshalJSON: encoding/json re-scans a
// marshaler's output, which costs more than the sort it saves.
// json.Marshal(BatchState) stays the reference the encoder is tested
// against.

// classKeys keeps the class map's entries in encoding order across
// checkpoints, together with the class object bytes they encode to. Slice
// shares it with the state it returns, exactly as it shares the map.
//
// An encode reuses the kept bytes only after checking them against the
// map (check); any disagreement re-encodes from the map. So the encoder
// stays exact for any map, however it was changed.
type classKeys struct {
	order []uint64 // the kept keys in encoding order, as of the last encode
	vals  []int    // vals[i] is order[i]'s value at the last encode
	obj   []byte   // the class object of order and vals: {"key":value,...}
	fresh []uint64 // keys first recorded since the last encode
	ins   []insert // the checked fresh entries, in fresh's (sorted) order
}

// insert is a fresh entry's value and its position in the kept order:
// the index of the first kept key after it.
type insert struct{ val, at int }

// object returns the class object of classes: json.Marshal's bytes for
// the map. The bytes are k's own and stay valid until the next encode.
func (k *classKeys) object(classes map[uint64]int) []byte {
	if !k.check(classes) {
		k.reset(classes)
		k.check(classes)
	}
	k.merge()
	return k.obj
}

// check reports whether the kept entries and the fresh keys account for
// classes exactly: the counts agree, every kept key is in classes with its
// kept value, and the fresh keys are distinct, not kept, and in classes.
// It sorts the fresh keys and records their values and positions in ins.
func (k *classKeys) check(classes map[uint64]int) bool {
	if len(k.order)+len(k.fresh) != len(classes) {
		return false
	}
	for i, h := range k.order {
		if v, ok := classes[h]; !ok || v != k.vals[i] {
			return false
		}
	}
	slices.SortFunc(k.fresh, compareDecimal)
	k.ins = k.ins[:0]
	at := 0
	for j, h := range k.fresh {
		v, ok := classes[h]
		if !ok || j > 0 && h == k.fresh[j-1] {
			return false
		}
		i, kept := slices.BinarySearchFunc(k.order[at:], h, compareDecimal)
		if kept {
			return false
		}
		at += i
		k.ins = append(k.ins, insert{v, at})
	}
	return true
}

// reset drops the kept entries and marks every key of classes fresh.
func (k *classKeys) reset(classes map[uint64]int) {
	k.order, k.vals, k.obj, k.fresh = k.order[:0], k.vals[:0], k.obj[:0], k.fresh[:0]
	for h := range classes { //gsb:nondeterminism-ok the keys are sorted before use
		k.fresh = append(k.fresh, h)
	}
}

// merge inserts the checked fresh entries into the kept ones, in place and
// from the back: each run of kept entries that a fresh entry displaces
// moves with one copy, in order, vals and the object alike, and only the
// fresh entries are formatted. In the object every entry but the first
// starts with ',' and the first with '{', so a run moves unchanged, except
// that the old first entry's '{' becomes ',' once a fresh entry precedes it.
func (k *classKeys) merge() {
	m, f := len(k.order), len(k.fresh)
	if m == 0 {
		k.obj = append(k.obj[:0], '{')
		for j, h := range k.fresh {
			if j > 0 {
				k.obj = append(k.obj, ',')
			}
			k.obj = appendEntry(k.obj, h, k.ins[j].val)
			k.vals = append(k.vals, k.ins[j].val)
		}
		k.obj = append(k.obj, '}')
		k.order, k.fresh = append(k.order, k.fresh...), k.fresh[:0]
		return
	}
	grow := 0
	for j, h := range k.fresh {
		grow += entryLen(h, k.ins[j].val)
	}
	r := len(k.obj) - 1 // the kept entries are obj[:r], the closing '}' obj[r]
	k.obj = slices.Grow(k.obj, grow)[:r+1+grow]
	k.order = slices.Grow(k.order, f)[:m+f]
	k.vals = slices.Grow(k.vals, f)[:m+f]
	w := len(k.obj) - 1 // the placed entries are obj[w:len-1]
	k.obj[w] = '}'
	i := m // the kept entries not yet placed are order[:i]
	for j := f - 1; j >= 0; j-- {
		h, v, at := k.fresh[j], k.ins[j].val, k.ins[j].at
		n := 0
		for e := at; e < i; e++ {
			n += entryLen(k.order[e], k.vals[e])
		}
		copy(k.obj[w-n:w], k.obj[r-n:r])
		copy(k.order[at+j+1:], k.order[at:i])
		copy(k.vals[at+j+1:], k.vals[at:i])
		w, r, i = w-n, r-n, at
		if at == 0 && n > 0 {
			k.obj[w] = ','
		}
		w -= entryLen(h, v)
		k.obj[w] = ','
		appendEntry(k.obj[w+1:w+1], h, v)
		k.order[at+j], k.vals[at+j] = h, v
	}
	k.obj[0] = '{'
	k.fresh = k.fresh[:0]
}

// appendEntry appends "key":value.
func appendEntry(dst []byte, h uint64, v int) []byte {
	dst = append(dst, '"')
	dst = strconv.AppendUint(dst, h, 10)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, int64(v), 10)
}

// entryLen is the length of an entry in the class object: its leading ','
// or '{' and "key":value.
func entryLen(h uint64, v int) int {
	n := len(`,"":`) + decimalDigits(h)
	if v < 0 {
		return n + 1 + decimalDigits(uint64(-v))
	}
	return n + decimalDigits(uint64(v))
}

// pow10 holds 10^0 .. 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// decimalDigits is the length of x's decimal rendering. A number of l
// significant bits has floor(l·log10 2) or one more decimal digits
// (1233/4096 ≈ log10 2).
func decimalDigits(x uint64) int {
	d := bits.Len64(x) * 1233 >> 12
	if x >= pow10[d] {
		d++
	}
	return max(d, 1)
}

// compareDecimal orders a and b as strings.Compare orders their decimal
// renderings, the order encoding/json writes integer map keys in. The
// longer number's leading digits are compared with the shorter number;
// on a tie the shorter one is a prefix of the longer and sorts first.
func compareDecimal(a, b uint64) int {
	da, db := decimalDigits(a), decimalDigits(b)
	switch {
	case da < db:
		if a <= b/pow10[db-da] {
			return -1
		}
		return 1
	case da > db:
		if a/pow10[da-db] >= b {
			return 1
		}
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// AppendJSON appends the JSON encoding of s to dst: byte for byte what
// json.Marshal writes for it, with the same field order, class keys in
// the same order, and the same escaping. It is AppendJSONParts' head, class
// object and closing '}' in one buffer.
func (s *BatchState) AppendJSON(dst []byte) ([]byte, error) {
	head, classes, err := s.AppendJSONParts(dst)
	if err != nil {
		return head, err
	}
	return append(append(head, classes...), '}'), nil
}

// AppendJSONParts appends the JSON encoding of s up to its class object
// to dst and returns the class object separately: the encoding is head,
// then classes, then '}'. The class object's bytes are s's own (shared
// with the states Slice derives from s), valid until s is encoded again;
// between calls s keeps them, so an encode after a Slice formats only the
// classes first seen in it.
func (s *BatchState) AppendJSONParts(dst []byte) (head, classes []byte, err error) {
	dst = append(dst, '{')
	if s.Depth != 0 {
		dst = append(dst, `"depth":`...)
		dst = strconv.AppendInt(dst, int64(s.Depth), 10)
		dst = append(dst, ',')
	}
	if s.Horizon != 0 {
		dst = append(dst, `"horizon":`...)
		dst = strconv.AppendInt(dst, int64(s.Horizon), 10)
		dst = append(dst, ',')
	}
	pool, err := json.Marshal(&s.Pool)
	if err != nil {
		return dst, nil, fmt.Errorf("sample: encode pool: %w", err)
	}
	dst = append(dst, `"pool":`...)
	dst = append(dst, pool...)
	dst = append(dst, `,"classes":`...)
	if s.Classes == nil {
		return dst, []byte("null"), nil
	}
	if s.keys == nil {
		s.keys = new(classKeys)
	}
	return dst, s.keys.object(s.Classes), nil
}
