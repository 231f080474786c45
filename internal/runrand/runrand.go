// Package runrand builds seeded math/rand generators for per-run
// policies. New(seed) yields, draw for draw, the stream of math/rand's
// own source seeded with seed, but it seeds in constant time.
//
// math/rand's Seed fills all 607 words of its lagged-Fibonacci register
// with 1,841 chained Lehmer steps, x ← 48271·x mod (2³¹−1), and XORs
// each word with a fixed "cooked" constant. A sampled run draws only a few
// dozen numbers, so most of that work is thrown away, and at one seeding
// per run it dominated the sampler's profile. Here each register word is
// computed the first time a draw reads it. Word i is a closed form of the
// normalized seed x₀: the Lehmer step is a multiplication, so the k-th
// value is x₀·48271ᵏ mod (2³¹−1), and word i combines the values at
// k = 21+3i, 22+3i and 23+3i as math/rand does. The powers of 48271 are a
// table built once.
//
// The cooked constants are not copied from math/rand: buildTables
// recovers them from math/rand itself, by running its source for seed 1
// through one full turn of the register, undoing those draws to get the
// seeded register, and XORing out seed 1's Lehmer part. The first New
// builds the tables, not package init: that seeding of math/rand takes
// ~0.1 ms, the slowest init in the binaries, and a process that never
// samples should not pay it at start-up.
package runrand

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607       // register length (math/rand's rngLen)
	rngTap   = 273       // second tap (math/rand's rngTap)
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271     // the Lehmer multiplier
	zeroSeed = 89482311  // what math/rand seeds with in place of 0
	skip     = 20        // Lehmer steps math/rand discards before word 0
	rngMask  = 1<<63 - 1 // Int63's mask
	words    = (rngLen + 63) / 64
)

var (
	tables sync.Once // guards building pow and cooked
	// pow[k] is 48271^k mod (2^31-1), for every step k seeding reaches.
	pow [skip + 3*rngLen + 1]uint64
	// cooked is math/rand's rngCooked: seeded word i is the Lehmer part
	// of word i XOR cooked[i].
	cooked [rngLen]int64
)

func buildTables() {
	p := uint64(1)
	for k := range pow {
		pow[k] = p
		p = p * lehmerA % int32max
	}

	// After rngLen draws every register word has been written once, by
	// the draw that returned it, and the taps are back where seeding left
	// them. So record the draws where the register holds them, then undo
	// the draws newest first: undoing draw k subtracts the tap word it
	// read, which holds that value again once every later draw is undone.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(src.Uint64())
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is the Lehmer part of register word i for the normalized
// seed x0: the values at steps 21+3i, 22+3i and 23+3i, packed as math/rand
// packs them.
//
//gsb:hotpath
func lehmerWord(x0 uint64, i int) int64 {
	k := skip + 1 + 3*i
	a := int64(x0 * pow[k] % int32max)
	b := int64(x0 * pow[k+1] % int32max)
	c := int64(x0 * pow[k+2] % int32max)
	return a<<40 ^ b<<20 ^ c
}

// New returns a generator whose every draw equals that of math/rand's
// source seeded with seed.
func New(seed int64) *rand.Rand {
	tables.Do(buildTables)
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's lagged-Fibonacci source with a lazily seeded
// register: vec[i] holds its seeded value only once filled has bit i set.
type source struct {
	x0        uint64 // normalized seed, in [1, 2^31-2]
	tap, feed int
	filled    [words]uint64
	vec       [rngLen]int64
}

// Seed resets the source to math/rand's state for seed without computing
// any register word.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.filled = [words]uint64{}
}

// Int63 implements rand.Source.
//
//gsb:hotpath
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 implements rand.Source64: one step of the register, as in
// math/rand.
//
//gsb:hotpath
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i, computing its seeded value on first read.
//
//gsb:hotpath
func (s *source) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.filled[i>>6]&bit == 0 {
		s.filled[i>>6] |= bit
		s.vec[i] = lehmerWord(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}
