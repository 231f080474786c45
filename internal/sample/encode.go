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
// keeps the keys in encoding order from one checkpoint to the next, so a
// checkpoint sorts only the keys first seen since the previous one.
//
// BatchState deliberately has no MarshalJSON: encoding/json re-scans a
// marshaler's output, which costs more than the sort it saves.
// json.Marshal(BatchState) stays the reference the encoder is tested
// against.

// classKeys keeps the keys of a BatchState's class map in encoding order
// across checkpoints. Slice shares it with the state it returns, exactly
// as it shares the map.
type classKeys struct {
	order []uint64 // the map's keys in encoding order, as of the last encode
	fresh []uint64 // keys first recorded since then
	spare []uint64 // merge buffer, swapped with order
}

// sorted returns every key of classes in encoding order. It sorts only the
// fresh keys and merges them into the kept order in one pass. When the
// kept order and the fresh keys do not account for the map exactly — a
// state decoded from disk, merged, or built by hand — every key is
// treated as fresh.
func (k *classKeys) sorted(classes map[uint64]int) []uint64 {
	if len(k.order)+len(k.fresh) == len(classes) && k.merge() {
		return k.order
	}
	k.reset(classes)
	k.merge()
	return k.order
}

// reset drops the kept order and marks every key of classes fresh.
func (k *classKeys) reset(classes map[uint64]int) {
	k.order, k.fresh = k.order[:0], k.fresh[:0]
	for h := range classes { //gsb:nondeterminism-ok the keys are sorted before use
		k.fresh = append(k.fresh, h)
	}
}

// merge sorts the fresh keys into the kept order. It reports false, and
// leaves the kept order as it was, when a key occurs twice: then the keys
// no longer mirror the map.
func (k *classKeys) merge() bool {
	slices.SortFunc(k.fresh, compareDecimal)
	for i := 1; i < len(k.fresh); i++ {
		if k.fresh[i] == k.fresh[i-1] {
			return false
		}
	}
	out := k.spare[:0]
	i, j := 0, 0
	for i < len(k.order) && j < len(k.fresh) {
		switch c := compareDecimal(k.order[i], k.fresh[j]); {
		case c < 0:
			out = append(out, k.order[i])
			i++
		case c > 0:
			out = append(out, k.fresh[j])
			j++
		default:
			return false
		}
	}
	out = append(append(out, k.order[i:]...), k.fresh[j:]...)
	k.order, k.spare, k.fresh = out, k.order, k.fresh[:0]
	return true
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
// the same order, and the same escaping. The class keys' order is kept
// in s between calls (see classKeys), so repeated calls on a state that
// Slice advances cost one pass over the map plus a sort of the new keys.
func (s *BatchState) AppendJSON(dst []byte) ([]byte, error) {
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
		return dst, fmt.Errorf("sample: encode pool: %w", err)
	}
	dst = append(dst, `"pool":`...)
	dst = append(dst, pool...)
	dst = append(dst, `,"classes":`...)
	dst = s.appendClasses(dst)
	return append(dst, '}'), nil
}

// appendClasses appends the class map as a JSON object.
func (s *BatchState) appendClasses(dst []byte) []byte {
	if s.Classes == nil {
		return append(dst, "null"...)
	}
	if s.keys == nil {
		s.keys = new(classKeys)
	}
	if out, ok := appendObject(dst, s.keys.sorted(s.Classes), s.Classes); ok {
		return out
	}
	// A kept key is missing from the map: the map was changed behind the
	// state's back. Treat every key as fresh, so the keys come from the
	// map itself.
	s.keys.reset(s.Classes)
	out, _ := appendObject(dst, s.keys.sorted(s.Classes), s.Classes)
	return out
}

// appendObject appends {"key":value,...} for keys in the given order. It
// reports false when a key is not in classes.
func appendObject(dst []byte, keys []uint64, classes map[uint64]int) ([]byte, bool) {
	dst = append(dst, '{')
	for i, h := range keys {
		v, ok := classes[h]
		if !ok {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = strconv.AppendUint(dst, h, 10)
		dst = append(dst, '"', ':')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '}'), true
}
