package runrand_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/runrand"
	"repro/internal/sched"
)

// draws are the ways of reading a generator; compare runs every one of them
// against both generators in the same order.
var draws = []struct {
	name string
	f    func(r *rand.Rand) int64
}{
	{"Int63", func(r *rand.Rand) int64 { return r.Int63() }},
	{"Uint64", func(r *rand.Rand) int64 { return int64(r.Uint64()) }},
	{"Intn", func(r *rand.Rand) int64 { return int64(r.Intn(7)) }},
	{"Int31n", func(r *rand.Rand) int64 { return int64(r.Int31n(1 << 30)) }},
	{"Float64", func(r *rand.Rand) int64 { return int64(math.Float64bits(r.Float64())) }},
}

// compare draws n values from got and want, cycling through every draw
// kind and a Perm now and then, and fails at the first difference.
func compare(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			if g, w := got.Perm(9), want.Perm(9); !slices.Equal(g, w) {
				t.Fatalf("seed %d, draw %d: Perm = %v, want %v", seed, i, g, w)
			}
			continue
		}
		d := draws[i%len(draws)]
		if g, w := d.f(got), d.f(want); g != w {
			t.Fatalf("seed %d, draw %d: %s = %d, want %d", seed, i, d.name, g, w)
		}
	}
}

// TestStreamEqualsMathRand: for edge seeds — zero (which math/rand
// replaces), ±1, the modulus 2^31-1 and its negation (both normalize to
// zero), 2^31, math/rand's zero replacement itself, and the int64
// extremes — every draw kind matches math/rand over three turns of the
// 607-word register, so both register indices wrap.
func TestStreamEqualsMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		compare(t, seed, runrand.New(seed), rand.New(rand.NewSource(seed)), 3*607)
	}
}

// TestRunSeedsEqualMathRand covers the seeds the engines actually use:
// DeriveRunSeed of the first 10,000 runs of a batch, 64 draws each.
func TestRunSeedsEqualMathRand(t *testing.T) {
	for i := 0; i < 10000; i++ {
		seed := sched.DeriveRunSeed(1, i)
		compare(t, seed, runrand.New(seed), rand.New(rand.NewSource(seed)), 64)
	}
}

// TestReseedEqualsMathRand: re-seeding a used generator forgets every
// word its earlier draws computed or wrote.
func TestReseedEqualsMathRand(t *testing.T) {
	r := runrand.New(5)
	compare(t, 5, r, rand.New(rand.NewSource(5)), 2000)
	for _, seed := range []int64{5, 6, 0} {
		r.Seed(seed)
		compare(t, seed, r, rand.New(rand.NewSource(seed)), 2*607)
	}
}

var sink int64

// BenchmarkRunRandSeed measures what a sampled run pays for its
// generator: construction and seeding plus 64 draws, against math/rand's
// own source.
func BenchmarkRunRandSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"runrand", runrand.New},
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				r := bc.new(sched.DeriveRunSeed(1, i))
				for range 64 {
					sink += r.Int63()
				}
				i++
			}
		})
	}
}
