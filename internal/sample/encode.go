package sample

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// This file is the sampling batch's checkpoint encoder. A campaign
// re-writes its whole coverage map at every checkpoint, and the map grows
// with the distinct-class count. The class object lists the map's entries
// in first-run order: by value (the smallest run that produced the
// class), ties by key. A slice only records classes at runs later than
// every run the state already holds, so the classes first seen since the
// previous checkpoint all sort after the kept ones: an encode checks the
// kept entries against the map, sorts the fresh ones and appends them.
// JSON objects are unordered, so json.Unmarshal reads the object back
// whatever its order.
//
// BatchState deliberately has no MarshalJSON: encoding/json re-scans a
// marshaler's output. json.Marshal(BatchState) writes the same fields in
// the same order, with the class keys in decimal-string order instead.

// classKeys keeps the class map's entries in first-run order across
// checkpoints, together with the class object bytes they encode to. Slice
// shares it with the state it returns, exactly as it shares the map.
//
// An encode reuses the kept bytes only after checking them against the
// map (check); any disagreement re-encodes from the map. So the encoder
// stays exact for any map, however it was changed.
type classKeys struct {
	kept  []entry  // the map's entries in first-run order, as of the last encode
	obj   []byte   // the class object of kept: {"key":value,...}
	fresh []uint64 // keys first recorded since the last encode
}

// entry is one class: its key h and its first run v.
type entry struct {
	h uint64
	v int
}

// compareEntries orders entries by value, ties by key.
func compareEntries(a, b entry) int {
	return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.h, b.h))
}

// object returns the class object of classes: its entries in first-run
// order. The bytes are k's own and stay valid until the next encode.
func (k *classKeys) object(classes map[uint64]int) []byte {
	m := len(k.kept)
	if !k.check(classes) {
		k.reset(classes)
		k.check(classes)
		m = 0
	}
	if m == 0 {
		k.obj = append(k.obj[:0], '{')
	} else {
		k.obj = k.obj[:len(k.obj)-1]
	}
	for i, e := range k.kept[m:] {
		if m+i > 0 {
			k.obj = append(k.obj, ',')
		}
		k.obj = append(k.obj, '"')
		k.obj = strconv.AppendUint(k.obj, e.h, 10)
		k.obj = append(k.obj, '"', ':')
		k.obj = strconv.AppendInt(k.obj, int64(e.v), 10)
	}
	k.obj = append(k.obj, '}')
	k.fresh = k.fresh[:0]
	return k.obj
}

// check reports whether the kept entries and the fresh keys account for
// classes exactly: the counts agree, every kept key is in classes with its
// kept value, and the fresh keys are in classes and, sorted, each sorts
// after the entry before it, the last kept one first. That also makes
// them distinct and not kept. It appends the sorted fresh entries to kept.
func (k *classKeys) check(classes map[uint64]int) bool {
	if len(k.kept)+len(k.fresh) != len(classes) {
		return false
	}
	for _, e := range k.kept {
		if v, ok := classes[e.h]; !ok || v != e.v {
			return false
		}
	}
	m := len(k.kept)
	for _, h := range k.fresh {
		v, ok := classes[h]
		if !ok {
			return false
		}
		k.kept = append(k.kept, entry{h, v})
	}
	slices.SortFunc(k.kept[m:], compareEntries)
	for i := max(m, 1); i < len(k.kept); i++ {
		if compareEntries(k.kept[i-1], k.kept[i]) >= 0 {
			return false
		}
	}
	return true
}

// reset drops the kept entries and marks every key of classes fresh.
func (k *classKeys) reset(classes map[uint64]int) {
	k.kept, k.obj, k.fresh = k.kept[:0], k.obj[:0], k.fresh[:0]
	for h := range classes { //gsb:nondeterminism-ok the keys are sorted before use
		k.fresh = append(k.fresh, h)
	}
}

// AppendJSONParts appends the JSON encoding of s up to its class object
// to dst and returns the class object separately: the encoding is head,
// then classes, then '}'. The head is what json.Marshal writes for s up
// to its class object, with the same field order and escaping; the class
// object lists the classes in first-run order. Its bytes are s's own
// (shared with the states Slice derives from s), valid until s is encoded
// again; between calls s keeps them, so an encode after a Slice formats
// only the classes first seen in it.
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
