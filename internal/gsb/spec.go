// Package gsb implements the family of generalized symmetry breaking (GSB)
// tasks introduced by Imbs, Rajsbaum and Raynal in "The Universe of
// Symmetry Breaking Tasks" (PI-1965, 2011).
//
// A GSB task for n processes is specified by a set of m possible output
// values and, for each value v in [1..m], a lower bound l_v and an upper
// bound u_v on the number of processes that must decide v. The task is
// "inputless": the relation Delta maps every input vector (an assignment
// of distinct identities) to the same set O of legal output vectors.
//
// The package provides the combinatorial structure of the family: counting
// vectors, kernel vectors and kernel sets (Definitions 3 and 4), synonym
// detection, l/u/(l,u)-anchoring (Definition 5), canonical representatives
// (Theorem 7), the containment partial order (Lemmas 4 and 5), the hardest
// task of a sub-family (Theorem 5), and the communication-free solvability
// characterization (Theorem 9).
package gsb

import (
	"fmt"

	"repro/internal/vecmath"
)

// Spec describes an <n,m,l,u>-GSB task (possibly asymmetric, in which case
// per-value bound vectors are used). The zero value is not a valid Spec;
// use NewSym or NewAsym.
type Spec struct {
	n int
	l vecmath.Vec // per-value lower bounds, length m
	u vecmath.Vec // per-value upper bounds, length m
}

// NewSym returns the symmetric <n,m,l,u>-GSB task specification.
// It panics if the parameters are structurally invalid (n < 1, m < 1,
// l < 0 or u < l); feasibility (Lemma 2) is a separate, non-panicking
// query because the paper studies infeasible parameter choices too.
func NewSym(n, m, l, u int) Spec {
	if n < 1 {
		panic(fmt.Sprintf("gsb: n must be >= 1, got %d", n))
	}
	if m < 1 {
		panic(fmt.Sprintf("gsb: m must be >= 1, got %d", m))
	}
	if l < 0 || u < l {
		panic(fmt.Sprintf("gsb: bounds must satisfy 0 <= l <= u, got l=%d u=%d", l, u))
	}
	lv := make(vecmath.Vec, m)
	uv := make(vecmath.Vec, m)
	for v := 0; v < m; v++ {
		lv[v] = l
		uv[v] = u
	}
	return Spec{n: n, l: lv, u: uv}
}

// NewAsym returns the asymmetric <n,m,l⃗,u⃗>-GSB task specification, where
// l[v] and u[v] bound the number of processes deciding value v+1.
// The bound slices are copied.
func NewAsym(n int, l, u []int) Spec {
	if n < 1 {
		panic(fmt.Sprintf("gsb: n must be >= 1, got %d", n))
	}
	if len(l) != len(u) || len(l) == 0 {
		panic("gsb: bound vectors must be non-empty and of equal length")
	}
	for v := range l {
		if l[v] < 0 || u[v] < l[v] {
			panic(fmt.Sprintf("gsb: bounds for value %d must satisfy 0 <= l <= u, got l=%d u=%d",
				v+1, l[v], u[v]))
		}
	}
	return Spec{n: n, l: vecmath.Vec(l).Clone(), u: vecmath.Vec(u).Clone()}
}

// N returns the number of processes.
func (s Spec) N() int { return s.n }

// M returns the number of possible output values.
func (s Spec) M() int { return len(s.l) }

// Lower returns the lower bound for value v (1-based).
func (s Spec) Lower(v int) int { return s.l[v-1] }

// Upper returns the upper bound for value v (1-based).
func (s Spec) Upper(v int) int { return s.u[v-1] }

// Symmetric reports whether all lower bounds are equal and all upper
// bounds are equal (the symmetric agreement case of the paper).
func (s Spec) Symmetric() bool {
	for v := 1; v < s.M(); v++ {
		if s.l[v] != s.l[0] || s.u[v] != s.u[0] {
			return false
		}
	}
	return true
}

// SymBounds returns (l, u) for a symmetric spec. It panics when the spec
// is asymmetric.
func (s Spec) SymBounds() (l, u int) {
	if !s.Symmetric() {
		panic("gsb: SymBounds on asymmetric spec")
	}
	return s.l[0], s.u[0]
}

// Feasible reports whether the task has at least one legal output vector
// (Lemma 1: sum of lower bounds <= n <= sum of upper bounds).
func (s Spec) Feasible() bool {
	return s.l.Sum() <= s.n && s.n <= s.u.Sum()
}

// String renders the spec in the paper's notation, e.g. "<6,3,1,4>-GSB"
// for symmetric specs or "<4,[1,0],[1,3]>-GSB" for asymmetric ones.
func (s Spec) String() string {
	if s.Symmetric() {
		l, u := s.SymBounds()
		return fmt.Sprintf("<%d,%d,%d,%d>-GSB", s.n, s.M(), l, u)
	}
	return fmt.Sprintf("<%d,%s,%s>-GSB", s.n, s.l, s.u)
}

// SameParams reports whether two specs have identical parameters (not
// merely the same output-vector set; for that, see Synonym).
func (s Spec) SameParams(t Spec) bool {
	return s.n == t.n && s.l.Equal(t.l) && s.u.Equal(t.u)
}

// Verify checks an output vector (one decided value per process, 1-based)
// against the specification. A nil error means the vector is legal.
func (s Spec) Verify(outputs []int) error {
	if len(outputs) != s.n {
		return fmt.Errorf("gsb: output vector has %d entries, want n=%d", len(outputs), s.n)
	}
	counts := make([]int, s.M())
	for i, v := range outputs {
		if v < 1 || v > s.M() {
			return fmt.Errorf("gsb: process %d decided %d, outside [1..%d]", i, v, s.M())
		}
		counts[v-1]++
	}
	for v := 0; v < s.M(); v++ {
		if counts[v] < s.l[v] {
			return fmt.Errorf("gsb: value %d decided %d times, below lower bound %d",
				v+1, counts[v], s.l[v])
		}
		if counts[v] > s.u[v] {
			return fmt.Errorf("gsb: value %d decided %d times, above upper bound %d",
				v+1, counts[v], s.u[v])
		}
	}
	return nil
}

// VerifyPartial checks the outputs of a run in which some processes may
// have crashed undecided: decided[i] reports whether outputs[i] is
// meaningful. The partial assignment is legal when no upper bound is
// exceeded and the undecided processes suffice to cover the remaining
// lower bounds (i.e. the prefix extends to a legal vector, which is what
// Definition 1's validity requires of crashed runs).
func (s Spec) VerifyPartial(outputs []int, decided []bool) error {
	if len(outputs) != s.n || len(decided) != s.n {
		return fmt.Errorf("gsb: partial output vectors have lengths %d/%d, want n=%d",
			len(outputs), len(decided), s.n)
	}
	counts := make([]int, s.M())
	undecided := 0
	for i := range outputs {
		if !decided[i] {
			undecided++
			continue
		}
		v := outputs[i]
		if v < 1 || v > s.M() {
			return fmt.Errorf("gsb: process %d decided %d, outside [1..%d]", i, v, s.M())
		}
		counts[v-1]++
	}
	need := 0
	for v := 0; v < s.M(); v++ {
		if counts[v] > s.u[v] {
			return fmt.Errorf("gsb: value %d decided %d times, above upper bound %d",
				v+1, counts[v], s.u[v])
		}
		if d := s.l[v] - counts[v]; d > 0 {
			need += d
		}
	}
	if need > undecided {
		return fmt.Errorf("gsb: partial outputs not completable: %d lower-bound slots remain but only %d processes undecided",
			need, undecided)
	}
	return nil
}

// CountingVector returns the counting vector of an output vector
// (Definition 3): entry v-1 is the number of processes that decided v.
// It panics if the vector is not a legal [1..m]^n vector of length n.
func (s Spec) CountingVector(outputs []int) vecmath.Vec {
	if len(outputs) != s.n {
		panic(fmt.Sprintf("gsb: output vector has %d entries, want %d", len(outputs), s.n))
	}
	counts := make(vecmath.Vec, s.M())
	for _, v := range outputs {
		if v < 1 || v > s.M() {
			panic(fmt.Sprintf("gsb: output value %d outside [1..%d]", v, s.M()))
		}
		counts[v-1]++
	}
	return counts
}

// CountingVectors enumerates C(T), the set of all counting vectors of the
// task (Definition 3), in descending lexicographic order.
func (s Spec) CountingVectors() []vecmath.Vec {
	return vecmath.BoundedCompositions(s.n, s.l, s.u)
}

// KernelSet returns the kernel set of a symmetric task (Definition 4):
// the non-increasing representatives of the counting vectors, in the
// descending lexicographic order used by the paper's Table 1.
// It panics for asymmetric specs, whose counting-vector classes are not
// closed under permutation.
func (s Spec) KernelSet() []vecmath.Vec {
	if !s.Symmetric() {
		panic("gsb: KernelSet on asymmetric spec")
	}
	l, u := s.SymBounds()
	return vecmath.BoundedPartitions(s.n, s.M(), l, u)
}

// BalancedKernelVector returns the balanced kernel vector of the
// <n,m,-,-> family (Definition 4): [ceil(n/m) x (n mod m), floor(n/m) ...].
func BalancedKernelVector(n, m int) vecmath.Vec {
	k := make(vecmath.Vec, m)
	q, r := n/m, n%m
	for i := 0; i < m; i++ {
		if i < r {
			k[i] = q + 1
		} else {
			k[i] = q
		}
	}
	return k
}

// Synonym reports whether s and t denote the same task, i.e. have the same
// set of output vectors (the paper writes G1 ≡ G2). Both specs must have
// the same n and m for the output sets to be comparable at all.
func (s Spec) Synonym(t Spec) bool {
	if s.n != t.n || s.M() != t.M() {
		return false
	}
	return countingSetEqual(s.CountingVectors(), t.CountingVectors())
}

// Contains reports whether every output vector of t is an output vector
// of s (S(t) ⊆ S(s)); in the paper's ordering this makes t at least as
// hard as s (any algorithm solving t also solves s).
func (s Spec) Contains(t Spec) bool {
	if s.n != t.n || s.M() != t.M() {
		return false
	}
	mine := countingKeySet(s.CountingVectors())
	for _, c := range t.CountingVectors() {
		if !mine[c.Key()] {
			return false
		}
	}
	return true
}

// StrictlyContains reports S(t) ⊂ S(s).
func (s Spec) StrictlyContains(t Spec) bool {
	return s.Contains(t) && !s.Synonym(t)
}

func countingKeySet(cs []vecmath.Vec) map[string]bool {
	set := make(map[string]bool, len(cs))
	for _, c := range cs {
		set[c.Key()] = true
	}
	return set
}

func countingSetEqual(a, b []vecmath.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	// Both enumerations are in descending lexicographic order, so compare
	// pointwise.
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// OutputVectors enumerates the full set O of legal output vectors (size
// m^n in the worst case — intended for small n only, as a cross-check of
// the counting-vector abstraction).
func (s Spec) OutputVectors() [][]int {
	var out [][]int
	cur := make([]int, s.n)
	counts := make([]int, s.M())
	var rec func(i int)
	rec = func(i int) {
		if i == s.n {
			for v := 0; v < s.M(); v++ {
				if counts[v] < s.l[v] {
					return
				}
			}
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 1; v <= s.M(); v++ {
			if counts[v-1] >= s.u[v-1] {
				continue
			}
			// Prune: remaining slots must be able to satisfy lower bounds.
			counts[v-1]++
			need := 0
			for w := 0; w < s.M(); w++ {
				if d := s.l[w] - counts[w]; d > 0 {
					need += d
				}
			}
			if need <= s.n-i-1 {
				cur[i] = v
				rec(i + 1)
			}
			counts[v-1]--
		}
	}
	rec(0)
	return out
}
