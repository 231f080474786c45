package sample

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// ClassSet is a sampling shard's coverage map: every canonical trace-class
// hash the shard has seen, with the smallest (global) run that produced
// it. First runs let a finalize or merge count distinct classes below any
// run cutoff, while the set grows with the class count, not the run count.
//
// Exactly two code paths write a set: Slice records a class at a run, and
// UnmarshalJSON replaces the set with a decoded one, every class fresh.
// The class object lists the classes in first-run order: by value, ties by
// key. An encode sorts the fresh classes and appends them to the object
// kept from the previous encode. That is exact by construction: a slice
// records only runs above every run the set holds (sched.SeededSlice
// claims indices in order, and BatchState.CheckClasses holds a decoded set
// to runs its pool has executed), so a written entry never changes and the
// fresh ones sort after the last written. JSON objects are unordered, so
// json.Unmarshal reads the object back whatever its order.
type ClassSet struct {
	first map[uint64]int // class hash → its first run
	obj   []byte         // the class object as of the last encode
	last  entry          // the last entry obj lists
	fresh []entry        // the classes first recorded since the last encode
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

// Len returns the number of classes in the set; a nil set has none.
func (c *ClassSet) Len() int {
	if c == nil {
		return 0
	}
	return len(c.first)
}

// record records class h at run i, keeping the smallest run per class,
// and reports whether h is new to the set.
func (c *ClassSet) record(h uint64, i int) bool {
	if c.first == nil {
		c.first = make(map[uint64]int)
	}
	first, ok := c.first[h]
	if !ok {
		c.first[h] = i
		c.fresh = append(c.fresh, entry{h, i})
	} else if i < first {
		c.first[h] = i
	}
	return !ok
}

// UnmarshalJSON replaces the set with the class object data and marks
// every class fresh, so the next encode writes the object whole.
func (c *ClassSet) UnmarshalJSON(data []byte) error {
	var first map[uint64]int
	if err := json.Unmarshal(data, &first); err != nil {
		return err
	}
	fresh := make([]entry, 0, len(first))
	for h, v := range first { //gsb:nondeterminism-ok the entries are sorted before use
		fresh = append(fresh, entry{h, v})
	}
	*c = ClassSet{first: first, fresh: fresh}
	return nil
}

// MarshalJSON returns the class object AppendJSONParts writes (the set's
// own bytes), so json.Marshal of a BatchState writes a checkpoint's bytes.
func (c *ClassSet) MarshalJSON() ([]byte, error) { return c.object() }

// object appends the fresh classes, in first-run order, to the class
// object and returns it. The bytes are the set's own, valid until the
// next encode.
func (c *ClassSet) object() ([]byte, error) {
	for i, e := range c.fresh {
		c.fresh[i].v = c.first[e.h] // a later run may have lowered it
	}
	slices.SortFunc(c.fresh, compareEntries)
	if len(c.obj) > 2 && len(c.fresh) > 0 && compareEntries(c.fresh[0], c.last) <= 0 {
		return nil, fmt.Errorf("sample: class %d first seen at run %d, not after the last class written (%d at run %d)",
			c.fresh[0].h, c.fresh[0].v, c.last.h, c.last.v)
	}
	if len(c.obj) == 0 {
		c.obj = append(c.obj, '{')
	} else {
		c.obj = c.obj[:len(c.obj)-1]
	}
	for _, e := range c.fresh {
		if len(c.obj) > 1 {
			c.obj = append(c.obj, ',')
		}
		c.obj = append(c.obj, '"')
		c.obj = strconv.AppendUint(c.obj, e.h, 10)
		c.obj = append(c.obj, '"', ':')
		c.obj = strconv.AppendInt(c.obj, int64(e.v), 10)
		c.last = e
	}
	c.obj = append(c.obj, '}')
	c.fresh = c.fresh[:0]
	return c.obj, nil
}

// AppendJSONParts appends the JSON encoding of s up to its class object
// to dst and returns the class object separately: head, then classes, then
// '}' are the bytes json.Marshal writes for s. The class object is the
// class set's own bytes (shared with the states Slice derives from s),
// valid until the set is encoded again.
func (s *BatchState) AppendJSONParts(dst []byte) (head, classes []byte, err error) {
	bare := *s
	bare.Classes = nil
	b, err := json.Marshal(&bare)
	if err != nil {
		return dst, nil, fmt.Errorf("sample: encode state: %w", err)
	}
	head = append(dst, b[:len(b)-len("null}")]...)
	if s.Classes == nil {
		return head, []byte("null"), nil
	}
	classes, err = s.Classes.object()
	return head, classes, err
}

// CheckClasses reports an error unless every class was first seen at a
// run the state's pool has executed: a non-negative run of its shard below
// its next index. A decoded state must pass it before it is resumed or
// merged, since Slice records only runs the pool has not reached. A nil
// state has no classes.
func (s *BatchState) CheckClasses() error {
	if s == nil || s.Classes == nil {
		return nil
	}
	shard, of := s.Pool.Shard, max(s.Pool.Of, 1)
	for h, run := range s.Classes.first { //gsb:nondeterminism-ok any offending class rejects the state
		if run < 0 || run%of != shard || int64(run/of) >= s.Pool.Next {
			return fmt.Errorf("sample: class %d first seen at run %d, not a run shard %d of %d has executed (next local index %d)",
				h, run, shard, of, s.Pool.Next)
		}
	}
	return nil
}
