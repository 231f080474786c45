package sample

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// FuzzAppendJSON drives one state through a sequence of operations read
// from the input — record a class as Slice does, set a value directly,
// delete a key, encode — and checks every encode against json.Marshal.
// Keys come from a small set, so operations collide, or are any 64 bits.
//
//	go test ./internal/sample -run '^$' -fuzz FuzzAppendJSON -fuzztime 60s
func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{0, 2, 5, 0, 4, 6, 3, 0, 6, 1, 1, 2, 7, 3, 2, 4, 3, 3})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 40, 1, 3, 1, 40, 200, 3, 0, 0, 0, 3})
	f.Add([]byte{0, 10, 1, 0, 12, 2, 0, 24, 3, 3, 2, 24, 0, 26, 4, 3, 1, 10, 9, 3})
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
		encode := func() {
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON wrote\n%s\njson.Marshal wrote\n%s", got, want)
			}
		}
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
