package sample

import (
	"encoding/binary"
	"testing"
)

// FuzzAppendJSON drives one state through a sequence of operations read
// from the input — record a class as Slice does, set a value directly,
// delete a key, encode — and checks every encode against the reference
// (checkEncoding). Keys come from a small set, so operations collide, or
// are any 64 bits.
//
//	go test ./internal/sample -run '^$' -fuzz FuzzAppendJSON -fuzztime 60s
func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{0, 2, 5, 0, 4, 6, 3, 0, 6, 1, 1, 2, 7, 3, 2, 4, 3, 3})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 40, 1, 3, 1, 40, 200, 3, 0, 0, 0, 3})
	f.Add([]byte{0, 10, 1, 0, 12, 2, 0, 24, 3, 3, 2, 24, 0, 26, 4, 3, 1, 10, 9, 3})
	// One seed for each way the kept order stops matching the map, so the
	// encode falls back to re-encoding from it. Key byte 2i is edgeKeys[i].
	// A class recorded at a run below the last kept one: 9 at run 3
	// after 1 at run 5.
	f.Add([]byte{0, 2, 5, 3, 0, 4, 3, 3})
	// Two keys with the same value, the fresh one the smaller: 9 after 10,
	// both at run 5.
	f.Add([]byte{0, 6, 5, 3, 0, 4, 5, 3})
	// A fresh key that is already kept: 1 is deleted and recorded again at
	// the same run, and 9 set behind the state's back keeps the counts
	// equal.
	f.Add([]byte{0, 2, 5, 3, 2, 2, 0, 2, 5, 1, 4, 7, 3})
	// A kept key deleted behind the state's back, and 10 set in its place
	// so the counts still agree.
	f.Add([]byte{0, 2, 1, 0, 4, 2, 3, 2, 2, 1, 6, 3, 3})
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
		st := &BatchState{Classes: map[uint64]int{}}
		encode := func() { checkEncoding(t, "encode", st) }
		for len(data) > 0 {
			switch next() % 4 {
			case 0:
				h := key()
				addClass(st, h, int(next()))
			case 1:
				h := key()
				st.Classes[h] = int(int8(next()))
			case 2:
				delete(st.Classes, key())
			case 3:
				encode()
			}
		}
		encode()
	})
}
