package sample

import (
	"encoding/binary"
	"testing"
)

// FuzzAppendJSON drives one class set through a sequence of operations
// read from the input, only as Slice and the decoder can — record a class
// at a run, encode, decode the state and continue — and checks every
// encode against the reference (checkEncoding). Between two encodes, or an
// encode and a decode, runs are recorded in any order, but every one is
// above every run the state held at the previous encode or decode, as a
// slice claims only runs its pool has not reached. Keys come from a small
// set, so records collide, or are any 64 bits.
//
//	go test ./internal/sample -run '^$' -fuzz FuzzAppendJSON -fuzztime 60s
func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{0, 2, 5, 0, 4, 6, 1, 0, 6, 1, 0, 2, 7, 1, 0, 4, 3, 1})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 40, 1, 0, 40, 200, 1, 2, 0, 0, 0, 1})
	f.Add([]byte{0, 10, 1, 0, 12, 2, 0, 24, 3, 1, 0, 24, 0, 0, 26, 4, 2, 0, 10, 9, 0, 28, 1, 1})
	// A class seen again at a smaller run of the same slice, before and
	// after a decode.
	f.Add([]byte{0, 2, 9, 0, 2, 3, 0, 4, 5, 1, 2, 0, 6, 7, 0, 6, 1, 1})
	// Decodes before any encode and one after another, each continued.
	f.Add([]byte{0, 2, 0, 0, 4, 1, 2, 0, 6, 0, 0, 2, 5, 1, 2, 2, 0, 8, 3, 1})
	// Any 64 bits as keys.
	f.Add([]byte{0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 3, 255, 255, 255, 255, 255, 255, 255, 255, 0, 1,
		0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 7, 2, 0, 7, 9, 9, 9, 9, 9, 9, 9, 9, 2, 1})
	// Encodes with no fresh class, on an empty state and after a decode.
	f.Add([]byte{1, 1, 0, 2, 3, 1, 1, 1, 2, 2, 1, 0, 4, 0, 0, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		key := func() uint64 {
			c := next()
			if c&1 == 0 {
				return edgeKeys[int(c>>1)%len(edgeKeys)]
			}
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		st := &BatchState{Classes: new(ClassSet)}
		floor, top := 0, -1 // the smallest run a record may use; the largest recorded
		for len(data) > 0 {
			switch next() % 3 {
			case 0:
				h := key()
				run := floor + int(next())
				st.Classes.record(h, run)
				top = max(top, run)
			case 1:
				checkEncoding(t, "encode", st)
				floor = top + 1
			case 2:
				st = roundTrip(t, st)
				floor = top + 1
			}
		}
		checkEncoding(t, "encode", st)
	})
}
