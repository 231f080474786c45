package vecmath

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundedPartitionsTable1Column(t *testing.T) {
	// The paper's Table 1 (n=6, m=3, entries in [0..6]) lists exactly these
	// seven kernel vectors, in this order.
	want := []Vec{
		{6, 0, 0}, {5, 1, 0}, {4, 2, 0}, {4, 1, 1}, {3, 3, 0}, {3, 2, 1}, {2, 2, 2},
	}
	got := BoundedPartitions(6, 3, 0, 6)
	if len(got) != len(want) {
		t.Fatalf("got %d partitions %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("partition %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBoundedPartitionsCases(t *testing.T) {
	tests := []struct {
		name             string
		total, m, lo, hi int
		want             []Vec
		wantCountOnly    int
		checkCountOnly   bool
	}{
		{name: "single value forced", total: 6, m: 3, lo: 2, hi: 2, want: []Vec{{2, 2, 2}}},
		{name: "infeasible low", total: 6, m: 3, lo: 3, hi: 6, want: nil},
		{name: "infeasible high", total: 10, m: 3, lo: 0, hi: 2, want: nil},
		{name: "m zero total zero", total: 0, m: 0, lo: 0, hi: 5, want: []Vec{{}}},
		{name: "m zero total nonzero", total: 3, m: 0, lo: 0, hi: 5, want: nil},
		{name: "renaming-like", total: 3, m: 5, lo: 0, hi: 1,
			want: []Vec{{1, 1, 1, 0, 0}}},
		{name: "wsb n4", total: 4, m: 2, lo: 1, hi: 3, want: []Vec{{3, 1}, {2, 2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := BoundedPartitions(tc.total, tc.m, tc.lo, tc.hi)
			if tc.checkCountOnly {
				if len(got) != tc.wantCountOnly {
					t.Fatalf("got %d partitions, want %d", len(got), tc.wantCountOnly)
				}
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if !got[i].Equal(tc.want[i]) {
					t.Errorf("partition %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestBoundedPartitionsInvariants(t *testing.T) {
	for total := 0; total <= 9; total++ {
		for m := 1; m <= 4; m++ {
			for lo := 0; lo <= 3; lo++ {
				for hi := lo; hi <= total+1; hi++ {
					parts := BoundedPartitions(total, m, lo, hi)
					seen := map[string]bool{}
					for _, p := range parts {
						if len(p) != m {
							t.Fatalf("partition %v has length %d, want %d", p, len(p), m)
						}
						if p.Sum() != total {
							t.Fatalf("partition %v sums to %d, want %d", p, p.Sum(), total)
						}
						if !p.NonIncreasing() {
							t.Fatalf("partition %v not non-increasing", p)
						}
						for _, x := range p {
							if x < lo || x > hi {
								t.Fatalf("partition %v entry %d outside [%d..%d]", p, x, lo, hi)
							}
						}
						if seen[p.Key()] {
							t.Fatalf("duplicate partition %v", p)
						}
						seen[p.Key()] = true
					}
					// Descending lexicographic enumeration order.
					for i := 1; i < len(parts); i++ {
						if CompareLex(parts[i-1], parts[i]) <= 0 {
							t.Fatalf("partitions out of order: %v before %v", parts[i-1], parts[i])
						}
					}
				}
			}
		}
	}
}

func TestCompositionsMatchPartitions(t *testing.T) {
	// Sorting every composition non-increasingly and deduplicating must give
	// exactly the set of bounded partitions.
	for total := 0; total <= 8; total++ {
		for m := 1; m <= 3; m++ {
			for lo := 0; lo <= 2; lo++ {
				for hi := lo; hi <= total; hi++ {
					comps := Compositions(total, m, lo, hi)
					fromComps := map[string]bool{}
					for _, c := range comps {
						if c.Sum() != total {
							t.Fatalf("composition %v sums to %d", c, c.Sum())
						}
						fromComps[c.SortedDesc().Key()] = true
					}
					parts := BoundedPartitions(total, m, lo, hi)
					if len(fromComps) != len(parts) {
						t.Fatalf("total=%d m=%d lo=%d hi=%d: %d distinct sorted compositions, %d partitions",
							total, m, lo, hi, len(fromComps), len(parts))
					}
					for _, p := range parts {
						if !fromComps[p.Key()] {
							t.Fatalf("partition %v missing from compositions", p)
						}
					}
				}
			}
		}
	}
}

func TestBoundedCompositions(t *testing.T) {
	// Election for n=4: exactly one process decides 1, three decide 2.
	got := BoundedCompositions(4, Vec{1, 3}, Vec{1, 3})
	if len(got) != 1 || !got[0].Equal(Vec{1, 3}) {
		t.Fatalf("election counting vectors = %v, want [[1,3]]", got)
	}
	// Symmetric case must agree with Compositions.
	lo := Vec{0, 0, 0}
	hi := Vec{2, 2, 2}
	a := BoundedCompositions(4, lo, hi)
	b := Compositions(4, 3, 0, 2)
	if len(a) != len(b) {
		t.Fatalf("asymmetric/symmetric mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("entry %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBoundedCompositionsPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched bound lengths")
		}
	}()
	BoundedCompositions(3, Vec{0}, Vec{1, 2})
}

func TestGCD(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {6, 4, 2}, {4, 6, 2},
		{-6, 4, 2}, {6, -4, 2}, {7, 13, 1}, {21, 14, 7},
	}
	for _, tc := range tests {
		if got := GCD(tc.a, tc.b); got != tc.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct{ n, k, want int }{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {6, 3, 20},
		{6, 1, 6}, {6, 2, 15}, {10, 5, 252}, {5, 6, 0}, {5, -1, 0},
		{30, 15, 155117520},
	}
	for _, tc := range tests {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// Property: Pascal's identity across a triangle.
	for n := 1; n <= 25; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestSubsets(t *testing.T) {
	for n := 0; n <= 7; n++ {
		for k := 0; k <= n+1; k++ {
			count := 0
			var prev Vec
			Subsets(n, k, func(s []int) bool {
				count++
				v := Vec(s).Clone()
				for i := 1; i < len(v); i++ {
					if v[i] <= v[i-1] {
						t.Fatalf("subset %v not strictly increasing", v)
					}
				}
				if prev != nil && CompareLex(prev, v) >= 0 {
					t.Fatalf("subsets out of order: %v before %v", prev, v)
				}
				prev = v
				return true
			})
			if count != Binomial(n, k) {
				t.Fatalf("Subsets(%d,%d) produced %d, want C(%d,%d)=%d",
					n, k, count, n, k, Binomial(n, k))
			}
		}
	}
}

func TestVecHelpers(t *testing.T) {
	v := Vec{3, 1, 2}
	if v.Sum() != 6 {
		t.Errorf("Sum = %d, want 6", v.Sum())
	}
	if v.Key() != "3,1,2" {
		t.Errorf("Key = %q", v.Key())
	}
	if v.String() != "[3,1,2]" {
		t.Errorf("String = %q", v.String())
	}
	if !v.SortedDesc().Equal(Vec{3, 2, 1}) {
		t.Errorf("SortedDesc = %v", v.SortedDesc())
	}
	if v.NonIncreasing() {
		t.Error("NonIncreasing = true for unsorted vector")
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 3 {
		t.Error("Clone aliases original storage")
	}
	if !v.Equal(Vec{3, 1, 2}) || v.Equal(Vec{3, 1}) || v.Equal(Vec{3, 1, 3}) {
		t.Error("Equal misbehaves")
	}
}

func TestCompareLex(t *testing.T) {
	tests := []struct {
		a, b Vec
		want int
	}{
		{Vec{1, 2}, Vec{1, 2}, 0},
		{Vec{1, 2}, Vec{1, 3}, -1},
		{Vec{2, 0}, Vec{1, 9}, 1},
		{Vec{1}, Vec{1, 0}, -1},
		{Vec{1, 0}, Vec{1}, 1},
		{nil, nil, 0},
	}
	for _, tc := range tests {
		if got := CompareLex(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareLex(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSortedDescProperty(t *testing.T) {
	f := func(xs []int8) bool {
		v := make(Vec, len(xs))
		for i, x := range xs {
			v[i] = int(x)
		}
		s := v.SortedDesc()
		if !s.NonIncreasing() || s.Sum() != v.Sum() || len(s) != len(v) {
			return false
		}
		// Same multiset.
		a := v.Clone()
		b := s.Clone()
		sort.Ints(a)
		sort.Ints(b)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxCeilFloor(t *testing.T) {
	if CeilDiv(7, 3) != 3 || CeilDiv(6, 3) != 2 || CeilDiv(0, 3) != 0 {
		t.Error("CeilDiv misbehaves")
	}
	if FloorDiv(7, 3) != 2 || FloorDiv(6, 3) != 2 {
		t.Error("FloorDiv misbehaves")
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestBoundedCompositionsRandomizedAgainstFilter(t *testing.T) {
	// Cross-check BoundedCompositions against brute-force filtering of the
	// full cube for random small bounds.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(3)
		lo := make(Vec, m)
		hi := make(Vec, m)
		for v := 0; v < m; v++ {
			lo[v] = rng.Intn(3)
			hi[v] = lo[v] + rng.Intn(4)
		}
		total := rng.Intn(10)
		got := BoundedCompositions(total, lo, hi)
		want := map[string]bool{}
		var rec func(idx int, cur Vec)
		rec = func(idx int, cur Vec) {
			if idx == m {
				if cur.Sum() == total {
					want[cur.Key()] = true
				}
				return
			}
			for x := lo[idx]; x <= hi[idx]; x++ {
				rec(idx+1, append(cur, x))
			}
		}
		rec(0, Vec{})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d compositions, want %d", trial, len(got), len(want))
		}
		for _, g := range got {
			if !want[g.Key()] {
				t.Fatalf("trial %d: unexpected composition %v", trial, g)
			}
		}
	}
}
