// Package vecmath provides the combinatorial primitives used by the GSB
// task algebra: bounded integer partitions (kernel vectors), compositions
// (counting vectors), binomial coefficients, gcd utilities and vector
// comparisons.
//
// All enumeration functions produce vectors in deterministic order so that
// callers can rely on reproducible output (golden tests pin the paper's
// Table 1 to the exact enumeration order).
package vecmath

import (
	"fmt"
	"sort"
)

// Vec is an integer vector. Kernel vectors and counting vectors from the
// paper are represented as Vec values.
type Vec []int

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Sum returns the sum of the entries of v.
func (v Vec) Sum() int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Key returns a canonical string encoding of v, usable as a map key.
func (v Vec) Key() string {
	b := make([]byte, 0, len(v)*3)
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, []byte(fmt.Sprint(x))...)
	}
	return string(b)
}

// String renders v as "[a,b,c]".
func (v Vec) String() string { return "[" + v.Key() + "]" }

// Equal reports whether v and w have the same length and entries.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// CompareLex compares v and w lexicographically, returning -1, 0 or +1.
// Shorter vectors compare before longer ones when they are a prefix.
func CompareLex(v, w Vec) int {
	for i := 0; i < len(v) && i < len(w); i++ {
		switch {
		case v[i] < w[i]:
			return -1
		case v[i] > w[i]:
			return 1
		}
	}
	switch {
	case len(v) < len(w):
		return -1
	case len(v) > len(w):
		return 1
	}
	return 0
}

// NonIncreasing reports whether v is sorted in non-increasing order.
func (v Vec) NonIncreasing() bool {
	for i := 1; i < len(v); i++ {
		if v[i] > v[i-1] {
			return false
		}
	}
	return true
}

// SortedDesc returns a copy of v sorted in non-increasing order. This is
// the "kernel vector" normalization of a counting vector (Definition 4 of
// the paper).
func (v Vec) SortedDesc() Vec {
	w := v.Clone()
	sort.Sort(sort.Reverse(sort.IntSlice(w)))
	return w
}

// BoundedPartitions enumerates all non-increasing vectors of length m with
// entries in [lo..hi] summing to total, in descending lexicographic order
// (the order used by the paper's Table 1 columns). It returns nil when no
// such vector exists.
//
// These are exactly the kernel vectors of the symmetric
// <n,m,lo,hi>-GSB task when total = n.
func BoundedPartitions(total, m, lo, hi int) []Vec {
	if m < 0 || lo > hi {
		return nil
	}
	if m == 0 {
		if total == 0 {
			return []Vec{{}}
		}
		return nil
	}
	var out []Vec
	cur := make(Vec, m)
	var rec func(idx, remaining, maxEntry int)
	rec = func(idx, remaining, maxEntry int) {
		if idx == m {
			if remaining == 0 {
				out = append(out, cur.Clone())
			}
			return
		}
		slots := m - idx - 1
		// Entry x must satisfy lo <= x <= min(maxEntry, hi), and leave a
		// remainder achievable by the remaining slots.
		upper := maxEntry
		if hi < upper {
			upper = hi
		}
		if remaining < upper {
			// An entry can never exceed what remains (entries are >= 0 when
			// lo >= 0; when lo < 0 this prune is invalid, but GSB bounds are
			// always non-negative).
			if lo >= 0 && remaining < upper {
				upper = remaining
			}
		}
		for x := upper; x >= lo; x-- {
			rest := remaining - x
			if rest < slots*lo || rest > slots*x {
				// Remaining slots must each hold in [lo..x] (non-increasing).
				if rest < slots*lo {
					continue
				}
				if rest > slots*x {
					// Entries after this one can be at most x each.
					continue
				}
			}
			cur[idx] = x
			rec(idx+1, rest, x)
		}
	}
	rec(0, total, total)
	return out
}

// Compositions enumerates all vectors of length m with entries in
// [lo..hi] summing to total (order matters), in descending lexicographic
// order. These are the counting vectors of a symmetric GSB task.
func Compositions(total, m, lo, hi int) []Vec {
	if m < 0 || lo > hi {
		return nil
	}
	if m == 0 {
		if total == 0 {
			return []Vec{{}}
		}
		return nil
	}
	var out []Vec
	cur := make(Vec, m)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == m {
			if remaining == 0 {
				out = append(out, cur.Clone())
			}
			return
		}
		slots := m - idx - 1
		for x := hi; x >= lo; x-- {
			rest := remaining - x
			if rest < slots*lo || rest > slots*hi {
				continue
			}
			cur[idx] = x
			rec(idx+1, rest)
		}
	}
	rec(0, total)
	return out
}

// BoundedCompositions enumerates all vectors c of length m with
// lo[v] <= c[v] <= hi[v] for every v and sum equal to total, in descending
// lexicographic order. These are the counting vectors of an asymmetric GSB
// task.
func BoundedCompositions(total int, lo, hi Vec) []Vec {
	m := len(lo)
	if len(hi) != m {
		panic("vecmath: lo and hi must have the same length")
	}
	// Suffix bounds for pruning.
	sufLo := make([]int, m+1)
	sufHi := make([]int, m+1)
	for i := m - 1; i >= 0; i-- {
		sufLo[i] = sufLo[i+1] + lo[i]
		sufHi[i] = sufHi[i+1] + hi[i]
	}
	var out []Vec
	cur := make(Vec, m)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == m {
			if remaining == 0 {
				out = append(out, cur.Clone())
			}
			return
		}
		for x := hi[idx]; x >= lo[idx]; x-- {
			rest := remaining - x
			if rest < sufLo[idx+1] || rest > sufHi[idx+1] {
				continue
			}
			cur[idx] = x
			rec(idx+1, rest)
		}
	}
	rec(0, total)
	return out
}

// GCD returns the greatest common divisor of a and b; GCD(0, 0) = 0.
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Binomial returns C(n, k) computed exactly with int64 intermediates.
// It panics on overflow for the sizes used in this repository (n <= 61).
func Binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i)
		if res < 0 {
			panic(fmt.Sprintf("vecmath: binomial overflow for C(%d,%d)", n, k))
		}
		res /= int64(i)
	}
	return int(res)
}

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("vecmath: CeilDiv requires b > 0")
	}
	return (a + b - 1) / b
}

// FloorDiv returns floor(a/b) for b > 0 and non-negative a.
func FloorDiv(a, b int) int {
	if b <= 0 {
		panic("vecmath: FloorDiv requires b > 0")
	}
	return a / b
}

// Subsets invokes fn with every k-element subset of [0..n-1] in increasing
// lexicographic order. The slice passed to fn is reused; fn must not
// retain it. If fn returns false the enumeration stops early.
func Subsets(n, k int, fn func(subset []int) bool) {
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
