// Package fixture is a determinism-analyzer golden fixture; the golden
// test loads it under the import path "repro/internal/sched" so the
// path-scoped analyzer applies.
package fixture

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `wall-clock read time\.Now`
	_ = time.Until(start)    // want `wall-clock read time\.Until`
	return time.Since(start) // want `wall-clock read time\.Since`
}

func wallClockWaived() time.Time {
	return time.Now() //gsb:nondeterminism-ok golden fixture: observability timestamp
}

func methodsAreFine(r *rand.Rand, t time.Time) {
	_ = r.Intn(10) // method on a seeded *rand.Rand: not flagged
	_ = t.Add(time.Second)
}

func globalRand(src rand.Source) int {
	_ = rand.New(src)                         // wrapping a seeded source is exempt
	_ = rand.NewZipf(rand.New(src), 2, 1, 10) // so is a Zipf over one
	_ = rand.NewSource(1)                     // want `rand\.NewSource seeds all 607 register words`
	rand.Shuffle(3, func(i, j int) {})        // want `global rand\.Shuffle`
	return rand.Intn(10)                      // want `global rand\.Intn`
}

func bareGoroutine() {
	go wallClockWaived() // want "bare `go` statement"
}

func goroutineWaived() {
	//gsb:nondeterminism-ok golden fixture: audited pool
	go wallClockWaived()
}

func mapRangeWrites(m map[string]int) ([]string, int) {
	var keys []string
	total := 0
	sum := 0
	for k, v := range m {
		keys = append(keys, k) // want `map-range body writes keys`
		total = v              // want `map-range body writes total`
		sum += v               // compound assignment commutes: not flagged
		local := v             // := declares inside the range: not flagged
		_ = local
	}
	return keys, total + sum
}

func mapRangeWaived(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //gsb:nondeterminism-ok golden fixture: sorted by the caller
	}
	return keys
}

func mapRangeSetInsert(m map[string]int) map[string]bool {
	set := map[string]bool{}
	for k := range m {
		set[k] = true // index-expression write commutes: not flagged
	}
	return set
}

func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // slice iteration is ordered: not flagged
	}
	return out
}
